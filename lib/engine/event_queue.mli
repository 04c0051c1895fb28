(** Time-ordered event queue with cancellation.

    Events are closures scheduled at an absolute timestamp. Ties are broken
    by insertion order (FIFO among events with equal timestamps), which keeps
    simulations deterministic. Cancellation is O(1): the event is flagged and
    skipped when it reaches the head of the queue.

    The queue is its own 4-ary min-heap over unboxed (time, insertion
    number) keys: ordering compares two array slots inline, with no
    comparison closure and no boxed entry to dereference. The heap moves
    int indices into a slab of events, so a sift writes no pointer. Storage
    stays proportional to the live queue, and a taken event is not
    retained.

    A caller can take an event's insertion number before it knows the
    event ({!reserve}) and schedule under it later ({!schedule_ticket}):
    the event then sits in the order exactly where it would have had it
    been scheduled at the reservation. A link ([Aitf_net.Link]) keeps its
    in-flight packets this way, only the earliest of them in the queue. *)

type t

type handle
(** Token identifying a scheduled event; used to cancel it. *)

type ticket [@@immediate]
(** A reserved insertion number: the tie-break an event scheduled with it
    gets, whenever it is scheduled. *)

val create : unit -> t

val schedule : ?label:string -> t -> time:float -> (unit -> unit) -> handle
(** [schedule q ~time f] arranges for [f ()] to run when the queue is drained
    past [time]. [time] must be finite. [?label] names the event's category
    for the opt-in profiler; it never affects ordering or execution. It is
    [schedule_ticket q (reserve q) ~time f]. *)

val reserve : t -> ticket
(** Take the next insertion number, for one {!schedule_ticket} later. It
    counts in {!total_scheduled} at once. *)

val schedule_ticket :
  ?label:string -> t -> ticket -> time:float -> (unit -> unit) -> handle
(** Schedule under a reserved number: among events at the same [time], it
    fires after those scheduled (or reserved) before the ticket was
    reserved and before those scheduled (or reserved) after. Schedule each
    ticket at most once. *)

val cancel : handle -> unit
(** Cancel the event if it is still pending; idempotent. A handle whose
    event was already taken (even one cancelling itself as it fires) is
    left as it is, and counts for neither {!length} nor
    {!total_cancelled}. *)

val is_cancelled : handle -> bool

val next_time : t -> float option
(** Timestamp of the earliest pending (non-cancelled) event. *)

val pop : t -> (float * string option * (unit -> unit)) option
(** Remove and return the earliest pending event with its timestamp and
    category label. Cancelled events are discarded silently. *)

val length : t -> int
(** Number of pending (non-cancelled) events — consistent with {!is_empty}:
    [length q = 0] iff [is_empty q]. *)

val is_empty : t -> bool
(** [true] iff no pending (non-cancelled) events remain. *)

val total_scheduled : t -> int
(** Monotone count of every event ever scheduled on this queue, a
    {!schedule_ticket} counted when its ticket was reserved. *)

val total_cancelled : t -> int
(** Monotone count of every cancellation that took effect (at most once per
    handle). With {!total_scheduled} this yields the cancelled fraction. *)

val max_length : t -> int
(** Peak live (non-cancelled) queue length observed so far. Events not
    yet scheduled under a reserved ticket do not count. *)

(** {1 Allocation-free access}

    {!next_time} and {!pop} wrap their result in an option (and [pop] in a
    tuple) on every call. The event loop instead checks {!is_empty} and
    then reads the head through these, which allocate nothing. *)

val head : t -> handle
(** The earliest pending event, left in the queue.
    @raise Invalid_argument if none is pending. *)

val take : t -> handle
(** Remove and return the earliest pending event.
    @raise Invalid_argument if none is pending. *)

val time : handle -> float
(** The event's timestamp. *)

val label : handle -> string option
(** The event's category label. *)

val fire : handle -> unit
(** Run the event's action. *)
