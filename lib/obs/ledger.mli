(** The byte ledger: where every offered byte of a run went.

    One ledger per world ({!key}, a slot of the {!Aitf_engine.Sim} run
    context). It counts packets and bytes per traffic class and per typed
    {!fate}. The packet plane posts at the places that already count
    (origination, link send and delivery, node receive, source gates,
    fault injectors); a fluid plane ({!add_plane}) contributes its byte
    integrals when the ledger is read, like a {!Metrics} counter.

    {b Conservation.} For every class, in each plane,
    [offered + Fault_duplicate = sum of every other fate], at any instant
    between events, [In_flight] holding what is still on a link or
    waiting in a fault injector's delay. The packet plane is integers and
    conserves exactly; a fluid plane's integrals are floats and conserve
    within {!fluid_epsilon} of its offered bytes. {!check} tests both. *)

type cls =
  | Attack  (** data packets (and aggregates) flagged as attack traffic *)
  | Legit  (** other data traffic *)
  | Control  (** everything that is not data: protocol messages *)

type fate =
  | Delivered  (** reached its destination node *)
  | In_flight  (** on a link, or held back by a fault injector's jitter *)
  | Gated  (** suppressed at the source: a source gate or stage-0 block *)
  | Fault_loss  (** dropped by a fault injector *)
  | Fault_duplicate
      (** a source term, not a fate: extra copies a fault injector made *)
  | Rate_limited  (** fluid plane: the excess over a rate-limit filter *)
  | Queue_overflow
      (** drop-tail queue full; for the fluid plane, its link-loss
          integral (the proportional drop-tail share) *)
  | Red_early_drop
  | Link_down
  | Fluid_loss  (** a packet dropped with the fluid load's loss fraction *)
  | No_route
  | Ttl_expired
  | Aitf_filter  (** an AITF filter at a gateway (fluid: stage >= 1) *)
  | Aitf_disconnected  (** a gateway's blocklist *)
  | Ingress_spoof
  | Egress_spoof
  | Legacy_proxy_query
  | Pool_absorb  (** a request absorbed at a spoofed-source pool node *)
  | Manual_filter
  | Pushback_limit
  | Dpf_spoof

val fates : fate list
(** In declaration order. *)

val fate_name : fate -> string
(** The name in metrics, tables and flight records ([aitf-filter],
    [queue-overflow], ...). *)

val fate_index : fate -> int
(** [0 .. n_fates - 1], in declaration order. *)

val n_fates : int

type t

val of_sim : Aitf_engine.Sim.t -> t
(** The world's ledger, a {!Aitf_engine.Sim.Key} slot. A world gets a
    fresh one on first use; a shard world forks a zeroed one, and the
    join adds the shard ledgers' cells into the parent's. *)

(** {1 Posting} Each costs two array writes and allocates nothing. *)

val offer : t -> cls -> int -> unit
(** A packet of the given size entered the network. *)

val post : t -> cls -> fate -> int -> unit
(** A packet of the given size met [fate]. *)

val depart : t -> cls -> int -> unit
(** The packet is now in flight. *)

val arrive : t -> cls -> int -> unit
(** The packet is no longer in flight. *)

(** {1 Fluid planes} *)

type plane = {
  offered_bytes : cls -> float;
  fate_bytes : cls -> fate -> float;
}
(** A rate-domain contributor, read (and integrated up to the world's
    clock) whenever the ledger is. It carries no packets and makes no
    duplicates. *)

val add_plane : t -> plane -> unit

val fluid_epsilon : float
(** Relative bound on a fluid plane's conservation error, against its
    offered bytes (1e-9). *)

(** {1 Reading} *)

val packets : t -> cls -> fate -> int
val offered_packets : t -> cls -> int

val packet_bytes : t -> cls -> fate -> int
(** The packet plane's bytes. *)

val fluid_bytes : t -> cls -> fate -> float
(** The fluid planes' bytes, summed in the order they were added. *)

val offered_bytes : t -> cls -> float
(** Both planes. *)

val check : t -> (unit, string) result
(** The conservation law, per class: exact for the packet plane's packets
    and bytes, within {!fluid_epsilon} for the fluid planes' bytes; and
    nothing negative in flight. A shard world's ledger alone can fail the
    last (its packets land in other shards' ledgers): check the joined
    one. The error names the class, the plane and both sides. *)

val register_metrics : t -> Metrics.t -> unit
(** Register [ledger.<class>.offered] and [ledger.<class>.<fate>] (bytes,
    both planes) for every class and fate. *)
