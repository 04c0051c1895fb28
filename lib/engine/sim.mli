(** Simulation world: a virtual clock driving an event queue.

    A [Sim.t] owns the current virtual time and the pending events. All
    simulation components (links, timers, protocol state machines) schedule
    closures against it. Execution is strictly single-threaded and
    deterministic: events fire in (time, insertion-order) order.

    Times are absolute, in seconds. Use {!after} for relative scheduling.

    A world also carries its run's context in typed slots ({!Key}, {!get},
    {!set}: the [Domain.DLS] shape, keyed by world instead of by domain) —
    the wall {!clock}, the {!profiler}, and what the layers above keep per
    run (span collector, flight ring, metrics registry, correlation ids).
    Code reads it from the world it already holds, so two worlds in one
    process never share it by accident. {!create} copies the {e ambient}
    context ({!set_ambient}): an [attach] before a scenario reaches the
    worlds the scenario creates, and no world created earlier. *)

type t

type handle = Event_queue.handle
(** Cancellation token for a scheduled event. *)

val create : unit -> t
(** A fresh world at time [0.0] with no pending events and a copy of the
    ambient context. *)

type world := t

module Key : sig
  type 'a t

  val create :
    ?fork:(world -> shard:int -> 'a -> 'a) ->
    ?join:('a -> 'a list -> unit) ->
    (unit -> 'a) ->
    'a t
  (** A new slot. A world whose slot was never set (here or in the ambient
      context it copied) gets the initialiser's value on first {!get}.
      [fork child ~shard v] is what a shard world [child] ({!val-fork})
      holds when its parent holds [v]; [join v vs] folds the shard values
      back into [v]. Without a fork, shard worlds share the parent's
      value, which must then be domain-safe (metrics registry, clock). *)
end

val get : t -> 'a Key.t -> 'a
val set : t -> 'a Key.t -> 'a -> unit

val set_ambient : 'a Key.t -> 'a -> unit
(** Set the slot in the ambient context; call it between runs only. *)

val ambient : 'a Key.t -> 'a

val fork : t -> shard:int -> t
(** A new world for shard [shard] of the run [parent] coordinates: a copy
    of [parent]'s slots, every slot with a fork holding its fork. *)

val join : t -> t list -> unit
(** [join parent shards] runs every slot's join, in key creation order.
    It spends the shard values: {!refork} them before the shards run
    again. *)

val refork : t -> t -> shard:int -> unit
(** [refork parent child ~shard] forks anew the slots that join; a slot
    that only forks (the correlation-id base) keeps its value. *)

type probe = string option -> float -> int -> unit

val profiler : probe option Key.t
(** Per-event probe ([Aitf_obs.Profile]): after each event it receives the
    event's label, its cost in {!clock} seconds and the live queue depth.
    One branch per event when [None]. Wall time is nondeterministic: the
    probe must never feed back into simulation state. A shard world
    starts without one; [Aitf_obs.Profile]'s slot installs its own. *)

val clock : (unit -> float) Key.t
(** Wall clock for everything that times a run (the profiler, the
    parallel scheduler's windows, the golden matrix's cells); default
    [Unix.gettimeofday]. Never read on the simulation path. *)

val now : t -> float
(** Current virtual time in seconds. *)

val at : ?label:string -> t -> float -> (unit -> unit) -> handle
(** [at sim time f] schedules [f] at absolute [time]. [?label] names the
    event's category for the opt-in profiler (see {!profiler}); it
    never affects ordering or execution.
    @raise Invalid_argument if [time] is in the past or not finite. *)

type ticket = Event_queue.ticket

val reserve : t -> ticket
(** Take the tie-break that an {!at} here would take, for an event to be
    scheduled later with {!at_ticket}. *)

val at_ticket : ?label:string -> t -> ticket -> float -> (unit -> unit) -> handle
(** [at_ticket sim ticket time f] is {!at}, except that among events at
    [time] [f] fires where an {!at} made at the reservation would have
    fired. Use each ticket once.
    @raise Invalid_argument if [time] is in the past or not finite. *)

val after : ?label:string -> t -> float -> (unit -> unit) -> handle
(** [after sim delay f] schedules [f] at [now sim +. delay]. A negative
    [delay] is clamped to [0.] (fires "immediately", after already-queued
    events at the current instant). *)

val cancel : handle -> unit
(** Cancel a pending event; idempotent, harmless after firing. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the event queue. With [?until], stops once the next event would
    fire strictly after [until] and advances the clock to [until]. Without
    it, runs until no events remain. [?max_events] bounds the number of
    events executed by this call — a guard against runaway self-scheduling
    loops in scenario code. Re-entrant calls are rejected. *)

val step : t -> bool
(** Execute the single earliest event, if any. Returns [false] when the
    queue is empty. *)

val next_time : t -> float option
(** Timestamp of the earliest pending event, if any. The parallel
    scheduler uses this to compute the conservative execution horizon. *)

val run_window : ?inclusive:bool -> t -> horizon:float -> unit
(** Drain events with time strictly below [horizon] ([<= horizon] when
    [inclusive]), leaving the clock at the last executed event rather than
    advancing it to the horizon. This is the shard-phase primitive of the
    conservative parallel scheduler: each shard may safely execute every
    local event below the global horizon, because no in-flight cross-shard
    message can carry an earlier timestamp. Re-entrant calls are
    rejected. *)

val advance_to : t -> float -> unit
(** Force the clock forward to [time] (no-op if already past it), used to
    align shard clocks with the end of a parallel run.
    @raise Invalid_argument if an event earlier than [time] is pending. *)

val stop : t -> unit
(** Request that the current [run] stop after the event being processed. *)

val events_processed : t -> int
(** Total number of events executed so far (for tests and reporting). *)

val pending : t -> int
(** Number of live (non-cancelled) events queued. A busy link queues one
    event, its head packet's delivery, however many packets it has in
    flight ({!reserve}). *)

val peak_pending : t -> int
(** Peak live (non-cancelled) event-queue length observed so far, counted
    as {!pending} is. *)

val total_scheduled : t -> int
(** Monotone count of every event ever scheduled, an {!at_ticket} counted
    at its {!reserve}. *)

val total_cancelled : t -> int
(** Monotone count of cancellations that took effect; with
    {!total_scheduled} this yields the cancelled fraction. *)
