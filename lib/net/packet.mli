(** Simulated packets.

    The payload is an extensible variant: higher layers (the AITF protocol,
    the Pushback baseline) add their own message constructors without the
    network layer depending on them. Plain traffic uses {!Data}.

    Two source fields coexist: [src] is what the header claims (and may be
    spoofed); [true_src] is the simulator's ground truth, used only for
    measurement and never consulted by protocol code.

    [route_record] models in-packet traceback (TRIAD-style, [CG00]): each
    AITF border router that forwards the packet stamps its address. The
    field holds the stamps newest first; {!recorded_route} reads them in
    traversal order, oldest (closest to the attacker) first. [ppm_mark] carries a Savage-style
    probabilistic edge mark: [(edge_start, edge_end, distance)]. *)

type payload = ..

type payload +=
  | Data of { flow_id : int; attack : bool }
        (** Ordinary traffic. [attack] is scenario ground truth consumed by
            the victim's detector, standing in for whatever local
            classification identified the flow as undesired. *)

type t = {
  id : int;  (** unique per simulation, for digests and tracing *)
  src : Addr.t;  (** header source — may be spoofed *)
  true_src : Addr.t;  (** ground truth origin (measurement only) *)
  dst : Addr.t;
  proto : int;
  sport : int;  (** source port (0 when not meaningful) *)
  dport : int;  (** destination port *)
  size : int;  (** bytes on the wire *)
  mutable ttl : int;
  mutable route_record : Addr.t list;
      (** newest stamp first; read it with {!recorded_route} *)
  mutable ppm_mark : (Addr.t * Addr.t * int) option;
  mutable last_hop : Addr.t option;
      (** address of the node that transmitted the packet last (set by the
          link layer); lets receivers attribute traffic to an upstream
          neighbor, as Pushback needs *)
  payload : payload;
}

val make :
  ?spoofed_src:Addr.t ->
  ?proto:int ->
  ?sport:int ->
  ?dport:int ->
  ?ttl:int ->
  src:Addr.t ->
  dst:Addr.t ->
  size:int ->
  payload ->
  t
(** Build a packet with a fresh [id]. [src] is the true origin; when
    [?spoofed_src] is given it becomes the header source while [src] is kept
    as [true_src]. Default [proto] is [17], ports [0], [ttl] [64]. *)

val is_control : t -> bool
(** [true] for anything that is not {!Data} — i.e. protocol messages. *)

val cls : t -> Aitf_obs.Ledger.cls
(** The packet's traffic class in the byte ledger: [Data] by its attack
    flag, anything else [Control]. *)

val record_route : t -> Addr.t -> unit
(** Stamp a border-router address onto the route record (bounded; stamps
    beyond the bound are dropped, mirroring limited header space). Costs
    one list cell, whatever the record's length. *)

val recorded_route : t -> Addr.t list
(** The route record in traversal order, attacker-side first. *)

val route_record_limit : int
(** Maximum number of recorded addresses (16). *)

val pp : Format.formatter -> t -> unit
(** One-line rendering for traces: id, src -> dst, size and payload kind. *)

val reset_ids : unit -> unit
(** Reset the main domain's id counter (between independent test runs). *)

val bind_domain : id_base:int -> unit
(** Mint the calling domain's packet ids from its own stride: [id_base],
    [id_base + 1], ... instead of the main domain's shared counter.
    Parallel-engine workers call this at spawn with disjoint bases, so
    concurrent {!make}s never repeat an id. *)
