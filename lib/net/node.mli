(** Network nodes: hosts, interior routers and border routers.

    A node is a bag of state — address, autonomous-system membership, ports
    (outgoing links), a FIB, forwarding hooks — whose behaviour is driven by
    {!Network}. Protocol layers customise a node by pushing {e hooks}
    (consulted on every transit packet, e.g. AITF filter checks and
    route-record stamping) and by replacing [local_deliver] (traffic sinks,
    detectors, protocol message handlers).

    Only border routers and hosts speak AITF; the [kind] field lets
    deployment code find them. *)

type kind = Host | Router | Border_router

type scope =
  | Global  (** advertised to every node *)
  | As_local  (** advertised only within the node's own AS *)

type hook_verdict =
  | Continue  (** keep processing *)
  | Drop of Aitf_obs.Ledger.fate
      (** discard; the node and the world's ledger count it under the fate *)

type port = {
  link : Link.t;
  peer_id : int;
  mutable inter_as : bool;  (** crosses an AS boundary *)
}

type t = {
  id : int;
  name : string;
  addr : Addr.t;
  mutable as_id : int;
  kind : kind;
  fib : port Lpm.t;
  mutable ports : port list;
  mutable advertised : (Addr.prefix * scope) list;
  mutable hooks : (t -> Packet.t -> hook_verdict) list;
  mutable local_deliver : t -> Packet.t -> unit;
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable forwarded_packets : int;
  mutable delivered_packets : int;
  drops : int array;  (** packets dropped here, by fate index *)
}

val make : id:int -> name:string -> addr:Addr.t -> as_id:int -> kind -> t
(** A fresh node advertising its own /32 globally, delivering locally to a
    silent sink, with no hooks. *)

val register_metrics : t -> Aitf_obs.Metrics.t -> unit
(** Register the node's [node.<name>.*] counters ([Network.add_node] does
    this when its world carries a registry). *)

val add_hook : t -> (t -> Packet.t -> hook_verdict) -> unit
(** Prepend a forwarding hook; hooks run in reverse order of addition and
    the first [Drop] wins. *)

val port_to : t -> peer_id:int -> port option
(** The port whose link leads to [peer_id], if directly connected. *)

val count_drop : t -> Aitf_obs.Ledger.fate -> unit
val drop_count : t -> Aitf_obs.Ledger.fate -> int
(** Packets dropped at this node (hooks, TTL, no route) under one fate. *)

val is_border : t -> bool

val pp : Format.formatter -> t -> unit
