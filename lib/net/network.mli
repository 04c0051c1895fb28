(** The network container: nodes, links, routing and forwarding.

    [Network.t] owns all nodes and links of a topology and implements the
    forwarding loop: receive → (local delivery | hooks → TTL → FIB lookup →
    transmit). Routing is computed offline by {!compute_routes}: one
    shortest-path (Dijkstra over link propagation delays, with a small
    per-hop bias) run per node, after which each advertised prefix is
    installed in every relevant FIB pointing at the first-hop port towards
    its nearest owner.

    Nodes advertise their own /32 globally by default; topology builders
    override [Node.advertised] to aggregate an AS behind its border router
    (scope {!Node.Global}) while keeping internal /32s {!Node.As_local}. *)

type t

val create : ?sim_of_as:(int -> Aitf_engine.Sim.t) -> Aitf_engine.Sim.t -> t
(** [?sim_of_as] shards the network for the parallel engine: links, node
    timers and local deliveries of AS [d] are scheduled on [sim_of_as d]
    instead of the network-wide sim. Omitted, every AS maps to [sim] and
    behaviour is the sequential engine, bit for bit. The function must be
    pure (it is consulted at every [connect]). *)

val sim : t -> Aitf_engine.Sim.t
(** The network-wide (global/coordinator) world — run-wide machinery such
    as the fluid engine and placement controllers lives here. *)

val sim_for : t -> Node.t -> Aitf_engine.Sim.t
(** The world owning [node]'s AS: where its timers and deliveries must be
    scheduled. Equals [sim t] when the network is unsharded. *)

val add_node :
  t -> name:string -> addr:Addr.t -> as_id:int -> Node.kind -> Node.t
(** Create and register a node. Addresses must be unique.
    @raise Invalid_argument on a duplicate address. *)

val node : t -> int -> Node.t
(** Node by id. @raise Not_found for an unknown id. *)

val node_by_addr : t -> Addr.t -> Node.t option
val node_by_name : t -> string -> Node.t option
val nodes : t -> Node.t list
(** All nodes, in creation order. *)

val links : t -> Link.t list

val connect :
  ?queue_capacity:int ->
  ?discipline:Link.discipline ->
  ?name:string ->
  t ->
  Node.t ->
  Node.t ->
  bandwidth:float ->
  delay:float ->
  Link.t * Link.t
(** Create the two directed links [a -> b] and [b -> a], register ports on
    both nodes and wire delivery into the forwarding loop. Default queue
    capacity is 64 KiB. Ports are flagged [inter_as] when the endpoints
    belong to different ASes. *)

val compute_routes : t -> unit
(** (Re)build every FIB from the current advertisements. Must be called
    after the topology is complete and before traffic starts. *)

val originate : t -> Node.t -> Packet.t -> unit
(** Inject a packet as if generated by [node]: self-addressed packets are
    delivered locally on the next event, others are forwarded (without
    running transit hooks at the origin). *)

val disconnect_port : t -> Node.t -> peer_id:int -> bool
(** Administratively shut both directions of the link between [node] and
    [peer_id]. Returns [false] when they are not adjacent. Models AITF's
    last-resort "disconnect from the non-cooperating neighbor". *)
