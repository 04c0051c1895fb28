(** Unidirectional point-to-point links.

    A link models a transmitter with finite bandwidth, a drop-tail FIFO
    queue bounded in bytes, and a fixed propagation delay. Packets are
    serialised one at a time ([size * 8 / bandwidth] seconds each), then
    delivered [delay] seconds later to the callback installed by the
    network layer. Congestion — the heart of a DoS attack — emerges from the
    queue filling and dropping the excess.

    A FIFO transmitter's future is fixed once a packet is accepted, so
    {!send} decides it all at once: the packet's transmission start (now,
    or the end of the packet ahead of it), its serialisation end and its
    delivery time. A hop costs one engine event, the delivery. The queue
    is a backlog of accepted packets that have not started yet; entries
    are reclaimed lazily, on the next {!send} or {!queued_bytes}, once
    their start time has passed. A send at the very instant the packet
    in service ends finds the transmitter still busy.

    Packets in flight wait in a FIFO ring with their delivery keys, and
    only the head has an event queued: the link's one delivery action
    delivers it and schedules the next. Each packet reserves its
    tie-break at {!send} ({!Aitf_engine.Sim.reserve}), so it fires exactly
    where an event of its own would have; a packet due before the ring's
    tail (a fluid wait that dropped since the last send) gets an event of
    its own. A busy link thus holds one event in the queue, however many
    packets it has in flight, and a delivered packet is not retained.

    Bidirectional connectivity is two links (see {!Network.connect}). *)

type t

type discipline =
  | Drop_tail
  | Red of { min_th : int; max_th : int; max_p : float }
      (** Random Early Detection: below [min_th] bytes of average queue,
          enqueue; above [max_th], drop; in between, drop with probability
          ramping to [max_p]. The average is an EWMA of the instantaneous
          backlog. Early, randomised drops desynchronise adaptive sources
          and keep latency down — the victim-tail ablation (A4) measures
          the difference under flood. *)

val create :
  ?discipline:discipline ->
  Aitf_engine.Sim.t ->
  name:string ->
  bandwidth:float ->
  delay:float ->
  queue_capacity:int ->
  t
(** [bandwidth] in bits/s (positive), [delay] in seconds (non-negative),
    [queue_capacity] in bytes — the waiting room, excluding the packet in
    service. Default discipline is {!Drop_tail}. RED randomness is derived
    deterministically from the link name. *)

val set_deliver : t -> (Packet.t -> unit) -> unit
(** Install the receive callback of the downstream node. Must be set before
    the first {!send}. *)

val wrap_deliver : t -> ((Packet.t -> unit) -> Packet.t -> unit) -> unit
(** [wrap_deliver l w] replaces the installed deliver callback [d] with
    [w d] — the interposition seam fault injectors use to drop, delay or
    duplicate packets between serialisation and receipt (see
    {!Aitf_fault.Fault}). Wrappers compose; the innermost is the node's
    original receive path.
    @raise Invalid_argument if no deliver callback is installed yet. *)

val set_remote : t -> (time:float -> (unit -> unit) -> unit) -> unit
(** Cross-shard delivery seam, alongside {!wrap_deliver}/{!set_fluid}:
    when set, the link no longer schedules its delivery event on its own
    scheduler. Instead, when {!send} accepts a packet it decides the
    transmitted-vs-dropped outcome locally (counters, link-down as of the
    send) and posts the deliver callback through [post ~time], [time]
    being the packet's delivery time, as a timestamped message — the
    parallel engine enqueues it into the destination shard's inbox, safe
    to execute once every shard's clock plus the minimum cross-shard
    latency has passed [time]. Posting at the send rather than at the end
    of serialisation only widens that margin. Fault wrappers installed
    via {!wrap_deliver} run inside the posted closure, i.e. on the
    receiving shard. *)

val send : t -> Packet.t -> unit
(** Accept a packet for transmission and schedule its delivery (behind
    the link's head packet, see above); drops it (and counts the drop) if
    the queue cannot hold it. A packet on a same-shard link is still
    checked against {!up} at delivery. *)

val name : t -> string
val bandwidth : t -> float
val delay : t -> float

val up : t -> bool
val set_up : t -> bool -> unit
(** A downed link silently discards everything sent to it (counts as drops);
    used to model disconnection. *)

val queued_bytes : t -> int
(** Bytes accepted but not yet started, as of the current virtual time. *)

val discipline : t -> discipline

val early_drops : t -> int
(** Packets dropped by RED before the queue was actually full. *)

(** Cumulative statistics. Every packet handed to {!send} is eventually
    counted as {e exactly one} of transmitted (delivered to the far end) or
    dropped (queue overflow, RED early drop, link down — including a link
    that went down while the packet was in flight). *)

val tx_packets : t -> int
val tx_bytes : t -> int
val dropped_packets : t -> int
val dropped_bytes : t -> int

val utilization : t -> now:float -> float
(** Fraction of capacity used so far: bits sent / (bandwidth * now). *)

(** {2 Fluid coupling (hybrid engine)}

    The fluid plane ({!Aitf_flowsim.Fluid}) publishes its per-link load
    here so that discrete packets — the AITF control plane and the probe
    samples — compete with the aggregates congesting the link: they are
    dropped with the fluid loss fraction (deterministically, from the
    link's own seeded RNG) and, when the link is saturated, delayed by a
    full queue's worth of serialisation. With no fluid load attached
    (both rates 0, the packet-only default) behaviour is bit-identical
    to before. *)

val set_fluid : t -> offered:float -> admitted:float -> unit
(** Current fluid load in bits/s: what aggregates offer to this link and
    what the link admits of it ([admitted <= offered]). *)
