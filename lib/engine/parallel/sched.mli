(** Conservative parallel discrete-event scheduler: domain-sharded event
    queues with lookahead synchronization.

    A [Sched.t] owns [shards] independent {!Aitf_engine.Sim.t} worlds plus
    one {e global} world for run-wide machinery (the fluid fixed point,
    placement controllers, series sampling). Each shard is executed by its
    own OCaml 5 [Domain]; the global world always runs on the coordinator
    thread, alone.

    {2 Synchronization protocol}

    Execution alternates between {e shard windows} and {e global batches},
    chosen by a bounded-lag rule. Let [t_min] be the earliest pending event
    across all shards, [g] the earliest pending global event and [L] the
    {e lookahead} — the minimum latency over all registered cross-shard
    channels ({!register_channel}):

    - if [g <= t_min], the coordinator executes the global events at
      [<= g] by itself (shards are parked, so global code may freely read
      and mutate any shard's state — this is where the fluid engine and
      the placement controllers run);
    - otherwise every shard executes, in parallel, its local events with
      time strictly below [min (t_min +. L) g]. Any cross-shard message
      sent during the window carries timestamp [>= sender's clock + L >=
      horizon], so it can never land in a receiver's past — the classic
      conservative-lookahead argument, which is why channels with zero
      latency are rejected outright rather than allowed to deadlock the
      window computation.

    At the barrier closing each window the coordinator drains every
    shard's inbox in deterministic [(time, sender shard, sender sequence)]
    order and replays the thunks deferred with {!defer} in
    [(time, shard, sequence)] order. Runs are therefore reproducible for a
    fixed (seed, shard count), regardless of OS scheduling.

    With [~shards:1] the global world {e is} the single shard and {!run}
    degenerates to [Sim.run] on it — bit-identical to the sequential
    engine by construction. *)

module Sim = Aitf_engine.Sim

type t

val create : shards:int -> unit -> t
(** A scheduler with [shards] shard worlds (plus the global world when
    [shards > 1]). Each shard world is then a [Sim.fork] of the global
    world: its own span collector, correlation-id base, flight ring and
    profiler, and the rest shared.
    @raise Invalid_argument if [shards < 1]. *)

val shards : t -> int

val shard_sim : t -> int -> Sim.t
(** The world owned by shard [i] (0-based). *)

val shard_sims : t -> Sim.t array
(** All shard worlds, index = shard id. With one shard this is also the
    global world. *)

val global : t -> Sim.t
(** The coordinator's world: events here run with every shard parked and
    may touch any shard's state. Equal to [shard_sim t 0] when
    [shards t = 1]. *)

val register_channel : t -> src:int -> dst:int -> lookahead:float -> unit
(** Declare a cross-shard channel (e.g. an inter-domain link whose
    endpoints partition into different shards) with its minimum latency in
    seconds. The scheduler's lookahead is the minimum over all registered
    channels; posting on unregistered pairs is not checked, so wiring code
    must register every channel it creates.
    @raise Invalid_argument if [lookahead] is zero, negative or not
    finite (a zero-latency cross-shard link would force zero-width
    windows, i.e. deadlock, so it is rejected with a clear error), or if
    [src = dst] or either index is out of range. *)

val lookahead : t -> float
(** Current lookahead ([infinity] until a channel is registered). *)

val post : t -> dst:int -> time:float -> (unit -> unit) -> unit
(** Send a timestamped message: [fn] will execute in shard [dst]'s world
    at virtual [time]. Called from a shard worker (e.g. a remote link's
    delivery seam) it enqueues into [dst]'s inbox, drained at the next
    barrier; called from the coordinator it schedules directly. *)

val defer : t -> (unit -> unit) -> unit
(** Run [fn] at the next barrier if called from a shard worker (stamped
    with the worker's current virtual time for deterministic replay
    order); run it immediately otherwise. This is the escape hatch for
    shard-phase code that must mutate global state — e.g. filter-table
    change notifications feeding the fluid mirror or a placement
    controller. *)

val run : ?until:float -> t -> unit
(** Drain every world using the protocol above. With [?until], stops once
    no event at [<= until] remains anywhere and advances all clocks to
    [until]. Worker domains are spawned on entry and joined before
    returning (also on exceptions, which are re-raised on the caller's
    thread).

    With [shards > 1] the run ends, also on a raise, by joining the
    shard worlds' context back into the global world's ([Sim.join]). A
    later [run] first re-forks what the join spent ([Sim.refork]), so no
    record is joined twice; correlation ids carry on. *)

val events_processed : t -> int
(** Total events executed across all worlds. *)

val shard_events : t -> int array
(** Events executed per shard world (index = shard id), excluding the
    global world. *)

val set_worker_init : t -> (shard:int -> unit) -> unit
(** Hook run once by each worker domain at spawn, after it has marked
    itself as executing [shard] — the seam for per-domain setup that
    must happen on the worker itself (e.g. [Packet.bind_domain]: the
    shard's packet-id stride in the worker's domain-local storage).
    Per-shard run context — span collector, flight ring, profiler,
    correlation-id base — is forked into the shard's world by {!create}
    instead. Exceptions raised by the hook are re-raised on the
    coordinator at the first window.
    @raise Invalid_argument if called while {!run} is active. *)

type window_record = {
  w_horizon : float;  (** virtual-time horizon the window ran to *)
  w_stall : float;  (** coordinator barrier wait for this window (s) *)
  w_events : int array;  (** events executed per shard in this window *)
  w_messages : int;  (** cross-shard messages drained at its barrier *)
  w_deferred : int;  (** deferred thunks replayed at its barrier *)
}

val set_window_log : t -> max:int -> unit
(** Record a {!window_record} for each of the first [max] shard windows
    (off by default; [max = 0] turns it back off). The cap bounds memory
    on long runs — {!window_log_dropped} counts windows past it. *)

val window_log : t -> window_record list
(** Logged windows, in execution order. *)

val window_log_dropped : t -> int

type stats = {
  windows : int;  (** parallel shard windows executed *)
  global_batches : int;  (** global-phase coordinator batches *)
  messages : int;  (** cross-shard messages drained at barriers *)
  deferred : int;  (** deferred thunks replayed at barriers *)
  stall_seconds : float;
      (** coordinator time spent blocked waiting for the slowest shard of
          each window (wall-clock by the global world's [Sim.clock],
          nondeterministic) *)
}

val stats : t -> stats
(** Snapshot of the synchronization counters — the null-message/barrier
    accounting surfaced in run reports and BENCH_E21.json. *)

val set_default_clock : (unit -> float) -> unit
(** Set the ambient [Sim.clock] (default [Unix.gettimeofday]), inherited
    by every scheduler created afterwards: it times {!stats}.stall_seconds
    and the profiler. Never read on the simulation path. *)

val register_metrics : t -> Aitf_obs.Metrics.t -> prefix:string -> unit
(** Register pull gauges over the live scheduler in [reg]:
    [<prefix>.shards], [.lookahead], [.windows], [.global_batches],
    [.messages], [.deferred] and [.stall_seconds]. Snapshotting after
    {!run} returns reads the final synchronization counters.
    @raise Invalid_argument on duplicate names (one registration per
    registry). *)
