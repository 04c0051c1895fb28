(** Periodic metric sampling on the virtual clock.

    A sampler ticks on an {!Aitf_engine.Timer.periodic} timer and appends
    every registered scalar metric (counters and gauges; a timer
    contributes its sample count as [<name>.count]) to one
    {!Aitf_stats.Series} per metric — the time-series half of a run
    report. Metrics registered after the sampler started simply begin
    their series at the next tick.

    Starting a sampler also registers the engine-level metrics pulled
    from the simulation world itself:

    - [sim.events_processed] (counter) — events executed so far;
    - [sim.pending_events] (gauge) — live event-queue depth, one event
      per busy link however many packets it has in flight;
    - [sim.peak_pending_events] (gauge) — peak live queue depth, counted
      the same way;
    - [sim.cancelled_events] (counter) — events cancelled before firing.

    A sampler re-arms itself forever; run the simulation with [~until]
    (as every packaged scenario does) or call {!stop} before draining the
    queue to completion. *)

type t

val start : ?interval:float -> Aitf_engine.Sim.t -> Metrics.t -> t
(** Start ticking every [interval] seconds (default 0.1 — see
    docs/OBSERVABILITY.md for how to align the interval with the
    protocol timescales; it must resolve Ttmp, not T). First tick at
    [now + interval].
    @raise Invalid_argument if [interval <= 0] or the sim metrics are
    already registered (one sampler per registry). *)

val stop : t -> unit
(** Stop ticking; idempotent. Collected series remain readable. *)

val interval : t -> float
val ticks : t -> int

val series : t -> (string * Aitf_stats.Series.t) list
(** One series per sampled metric, sorted by name. *)

val find_series : t -> string -> Aitf_stats.Series.t option
