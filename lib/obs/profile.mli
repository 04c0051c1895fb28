(** Opt-in engine profiler: wall-clock accounting per event category.

    Installs the {!Aitf_engine.Sim.profiler} probe and buckets the
    wall-clock cost of every executed event by its scheduling
    label ([Sim.at ~label] / [Sim.after ~label]; unlabelled events land
    in ["other"]), while tracking the peak live event-queue depth it
    observed. Together with the queue's own scheduled/cancelled totals
    this attributes a run's hot path: which event category burned the
    time, and how deep the queue got.

    Everything here is wall-clock and therefore {e nondeterministic}; the
    profiler only reads simulation state (one branch per event when not
    attached) and never feeds back into it, so a profiled run executes
    the same event sequence as an unprofiled one. *)

type t

val create : unit -> t

val key : t option Aitf_engine.Sim.Key.t
(** The world's profiler, behind its {!Aitf_engine.Sim.profiler} probe.
    Each shard world ({!Aitf_engine.Sim.fork}) gets a fresh one, and the
    join adds them into the parent's: one table covers every world. *)

val attach : t -> unit
(** Make [t] the ambient profiler (its slot and its probe), replacing any
    other: every [Sim.t] created while attached inherits it, which is how
    the probe reaches sims that scenarios create internally. Worlds
    created before the attach are unaffected. *)

val detach : unit -> unit
(** Stop seeding new worlds with a profiler; existing worlds keep theirs. *)

val enabled : Aitf_engine.Sim.t -> bool
(** Whether [sim] has a profiler probe. *)

val merge : t list -> t
(** A new profiler holding the sums of several profilers' buckets, events
    and seconds (peak queue depth is the max). *)

(** {1 Results} *)

val events : t -> int
(** Events timed while attached. *)

val seconds : t -> float
(** Total wall-clock seconds across all buckets (by the worlds'
    {!Aitf_engine.Sim.clock}). *)

val peak_pending : t -> int
(** Highest live event-queue depth observed by the probe. A busy link
    counts one event, its head packet's delivery, however many packets it
    has in flight ({!Aitf_engine.Sim.pending}). *)

val buckets : t -> (string * (int * float)) list
(** [(label, (events, seconds))], sorted by seconds, costliest first. *)

val report : t -> string
(** Human-readable per-bucket table. *)

val register_metrics : t -> Metrics.t -> prefix:string -> unit
(** Register pull-based gauges/counters over this profiler under
    [prefix]: [<prefix>.events], [<prefix>.seconds],
    [<prefix>.peak_pending] — how `bench --json` and the run report gain
    hot-path attribution. Values are wall-clock and nondeterministic. *)
