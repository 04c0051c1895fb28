(** Packet flight recorder: a bounded ring buffer of per-hop records.

    When a span tree shows {e that} a request stalled, the flight
    recorder shows {e where}: each record captures one link-level moment
    (enqueue, dequeue for transmission, or drop with its reason) together
    with the node, link, packet size and queue depth at that instant.
    The buffer holds the last N records — cheap enough to leave armed for
    a whole run — and is dumped on demand or automatically when a span
    breaches its latency SLO (see {!Span.set_slo}).

    The recorder is a slot of the {!Aitf_engine.Sim} run context, off by
    default, mirroring {!Metrics}: {!attach} before a scenario creates its
    world, and every link of that world records into it. The network
    layer's recording sites cost one branch when the world has no
    recorder. Recording never perturbs the run. *)

type kind =
  | Enqueue  (** packet accepted into the link queue *)
  | Dequeue  (** packet starts transmission *)
  | Drop of Ledger.fate  (** dropped, with the link's fate *)

type record = {
  time : float;  (** virtual seconds *)
  node : string;  (** transmitting node *)
  link : string;
  kind : kind;
  size : int;  (** packet bytes *)
  queue_depth : int;  (** queued bytes after this action *)
}

type t

val create : capacity:int -> t
(** A recorder holding the last [capacity] records.
    @raise Invalid_argument if [capacity <= 0]. *)

val set_dump_path : t -> string option -> unit
(** File {!auto_dump} writes to. [None] (the default) dumps to stderr. *)

(** {1 Attachment} *)

val key : t option Aitf_engine.Sim.Key.t
(** The world's recorder slot. It forks into a fresh ring of the same
    capacity per shard world ({!Aitf_engine.Sim.fork}). The join appends
    the shard rings' records to the parent's in (time, shard, write
    order) order — globally time-sorted, since each shard writes in
    virtual-time order — and the parent's {!recorded} then counts the
    records of every ring. An {!auto_dump} of the parent asked for
    between the fork and the join is done by the join, on the joined
    ring. *)

val attach : t -> unit
(** Make [t] the ambient recorder, copied by every world created while it
    is attached. *)

val detach : unit -> unit

val enabled : Aitf_engine.Sim.t -> bool
(** Whether [sim] has a recorder. *)

(** {1 Recording} *)

val note :
  Aitf_engine.Sim.t ->
  time:float ->
  node:string ->
  link:string ->
  kind:kind ->
  size:int ->
  queue_depth:int ->
  unit
(** Append a record to [sim]'s recorder; one branch when it has none.
    [time] is the moment recorded, which a link may set ahead of the
    world's clock (a queued packet's transmission start). *)

(** {1 Reading back} *)

val records : t -> record list
(** Oldest first; at most [capacity] records. *)

val recorded : t -> int
(** Total records ever written (may exceed the capacity). *)

val dump : ?out:Format.formatter -> t -> unit
(** Print every retained record, oldest first (default
    [Format.err_formatter]). *)

val auto_dump : t -> unit
(** The SLO-breach dump: write the retained records to the dump path
    ({!set_dump_path}), or to stderr when no path is set. Each dump
    rewrites the file whole. While the ring's world is split into shard
    worlds the dump waits for the join, so it holds every shard's records;
    several breaches before one join make one dump. A sharded run finds
    its breaches at the span join, after the run. *)
