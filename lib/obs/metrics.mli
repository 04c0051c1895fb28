(** Run-wide metrics registry.

    The observability substrate for every layer of the simulator: named
    counters, gauges and timers, registered once per run and read back as
    deterministic snapshots. Counters and gauges are {e pull-based} — the
    registering component hands over a closure reading state it already
    keeps (a filter table's occupancy, a link's byte count), so an
    instrumented hot path costs nothing beyond the work it was already
    doing. Timers are the one push-based kind (value distributions such as
    time-to-filter have no state to read back); components hold a
    [timer option] that is [None] when no registry was attached at
    creation, so a disabled observation costs one branch — the same
    off-by-default design as {!Span} collection.

    {b Naming.} Dot-separated, instance-qualified:
    [<layer>.<instance>.<metric>], e.g. [gateway.B_gw1.filters.occupancy].
    Names are unique per registry; registering a duplicate raises. Use one
    fresh registry per run — component creation registers instance metrics,
    so replaying a scenario against the same registry would collide.

    {b Attachment.} Like span tracing, instrumentation is off by default.
    The registry a component registers with is its world's ({!key}, a
    slot of the {!Aitf_engine.Sim} run context): a caller attaches one
    ({!attach}) before the scenario creates its world, every world created
    while it is attached carries it, and every component built in such a
    world self-registers. Detach when the run's report has been taken. *)

type t

type timer
(** Handle for pushing duration (or any scalar) observations. *)

(** A snapshot value. [Counter] is monotone over a run; [Gauge] is a
    level; [Histogram] carries the sample count, the sum and the
    cumulative-style buckets (upper bound, count), final bound
    [infinity]. *)
type value =
  | Counter of float
  | Gauge of float
  | Histogram of { count : int; sum : float; buckets : (float * int) list }

val create : unit -> t

val register_counter :
  t -> ?unit_:string -> ?help:string -> string -> (unit -> float) -> unit
(** [register_counter t name read] registers a monotone metric sampled by
    calling [read].
    @raise Invalid_argument if [name] is already registered. *)

val register_gauge :
  t -> ?unit_:string -> ?help:string -> string -> (unit -> float) -> unit
(** Like {!register_counter} for a level (may go down). *)

val timer :
  t -> ?unit_:string -> ?help:string -> ?bounds:float list -> string -> timer
(** Register a histogram-backed timer. Default [bounds] are logarithmic
    from 1 ms to 100 s (the protocol latency scale); see
    {!Aitf_stats.Histogram.log_bounds}.
    @raise Invalid_argument on a duplicate name or bad bounds. *)

val observe : timer -> float -> unit
(** Record one sample (seconds, for the default bounds). *)

val registered : t -> string -> bool
val size : t -> int

val names : t -> string list
(** Sorted. *)

val value : t -> string -> value option
(** Sample one metric now. *)

val snapshot : t -> (string * value) list
(** Sample every metric, sorted by name — the deterministic read used by
    samplers and reports. *)

val unit_of : t -> string -> string option
val help_of : t -> string -> string option

(** {1 Attachment}

    The registry lives in the world's run context; the ambient one is
    copied by every [Sim.create] while it is attached. *)

val key : t option Aitf_engine.Sim.Key.t
(** The world's registry slot. *)

val attach : t -> unit
(** Make [t] the ambient registry (replacing any previous one). *)

val detach : unit -> unit

val attached : unit -> t option
(** The ambient registry. *)

val with_attached : t -> (unit -> 'a) -> 'a
(** [with_attached t f] attaches [t], runs [f] and detaches again even when
    [f] raises — the exception-safe form every scenario driver should use:
    a raise mid-build must not leave the registry attached to poison the
    next run in the same process. *)

val if_attached : Aitf_engine.Sim.t -> (t -> unit) -> unit
(** Run the registration block iff [sim] carries a registry. *)

val timer_if_attached :
  ?unit_:string ->
  ?help:string ->
  ?bounds:float list ->
  Aitf_engine.Sim.t ->
  string ->
  timer option
(** [Some (timer reg name)] against [sim]'s registry, else [None] — what a
    component stores for its push-side observations. *)
