(** Causal span tracing for filtering requests.

    Aggregate metrics (registry histograms) answer "how long does
    time-to-filter take overall"; this module answers "why did {e this}
    request take 740 ms, and at which gateway did it stall". Every
    filtering request is keyed by a small integer correlation id minted
    at the victim ({!mint}) and carried inside {!Aitf_core.Message}'s
    request record; each protocol layer opens a child span per stage
    (detect, request, temp-filter, verification, counter-request,
    permanent-filter) and attaches point events for retransmissions,
    drops, policing rejections and overload evictions. A run yields a
    queryable forest of span trees, exportable to Chrome trace-event
    JSON (loadable in Perfetto) plus a human-readable critical-path
    summary.

    Like {!Metrics}, collection is off by default. The collector and the
    correlation-id counter are slots of the {!Aitf_engine.Sim} run
    context: {!attach} before a scenario creates its world, and every
    recording call made with that world lands in its collector, stamped
    with the world's clock. Every recording entry point is a single branch
    when the world has no collector. Recording never schedules events and
    never consumes randomness, and {!mint} runs unconditionally off a
    plain counter, so a traced run is bit-identical to an untraced one
    (same seed, same event sequence).

    {2 Sharded runs}

    The collector and the correlation-id counter split over a parallel
    run's shard worlds ({!Aitf_engine.Sim.fork}): each shard world records
    into its own collector, so recording needs no locks, and mints from
    its own base [(shard + 1) lsl 24], whether or not tracing is on, so
    traced sharded runs stay bit-identical to untraced ones. Shard
    collectors run with {!set_allow_orphans} on, and so does the parent's
    collector from the fork until the join: spans for a correlation id
    whose root opened in another world accumulate under an {e orphan}
    placeholder. The join ({!Aitf_engine.Sim.join}, after the parallel
    scheduler's run) is {!merge_into}: it reunites everything, re-keying
    roots into the canonical (opened_at, victim, flow) order a sequential
    run would have minted and dropping orphan-only roots (forged ids),
    which reproduces the sequential "ignore unknown corr" semantics; the
    parent's collector then leaves orphan mode, also when the run raised.
    {!digest} applies the same canonicalization, so equal digests across
    shard counts mean the same trace. *)

(** Protocol stages of one filtering request, in causal order. *)
type stage =
  | Detect  (** first attack packet at the victim → detection fires *)
  | Request  (** victim sends the request → victim's gateway receives it *)
  | Temp_filter  (** temporary (Ttmp) filter installed → expiry *)
  | Verification
      (** request receipt at the attacker-side gateway → handshake result
          (equals the registry's time-to-filter when it verifies) *)
  | Counter_request
      (** gateway's to-attacker request sent → attacker host receives it *)
  | Permanent_filter  (** long (T) filter installed → removed/expired *)

val stage_name : stage -> string
(** Kebab-case name, e.g. ["temp-filter"]. *)

type event = {
  at : float;
  label : string;
  by : string option;  (** node that recorded it, when the recorder named one *)
}
(** A point annotation inside a span or at the root. *)

type span = {
  span_corr : int;
  stage : stage;
  node : string;  (** node that opened the span *)
  started_at : float;
  mutable finished_at : float option;  (** [None] while still open *)
  mutable span_events : event list;  (** newest first *)
}

type root = {
  corr : int;
  mutable flow : string;  (** printed flow label *)
  mutable victim : string;  (** node that minted the id *)
  mutable opened_at : float;
  mutable completed_at : float option;
      (** when the long filter was installed at the attacker side — the
          "request succeeded" moment; [None] for unfinished requests *)
  mutable spans : span list;  (** newest first *)
  mutable root_events : event list;  (** newest first *)
  mutable orphan : bool;
      (** placeholder created by a shard collector for a correlation id
          whose root lives in another shard's collector; resolved (or
          dropped) by {!merge_into} *)
}

type t
(** A span collector — one per traced run (plus one per shard in sharded
    runs). *)

val create : unit -> t

val set_allow_orphans : t -> bool -> unit
(** When on, recording calls for an unknown correlation id create an
    orphan placeholder root instead of being ignored. Off by default
    (sequential semantics); the fork of {!key} turns it on in shard
    collectors and, until the join, in the parent's collector. *)

(** {1 Correlation ids} *)

val mint : Aitf_engine.Sim.t -> int
(** [sim]'s next correlation id (1, 2, ... for a fresh world).
    Deterministic and independent of attachment: protocol code mints
    unconditionally so that message contents do not depend on whether
    tracing is on. *)

(** {1 Attachment} *)

val key : t option Aitf_engine.Sim.Key.t
(** The world's collector slot. It forks into a fresh orphan-mode
    collector per shard world and joins with {!merge_into} (see "Sharded
    runs" above). *)

val attach : t -> unit
(** Make [t] the ambient collector, copied by every world created while
    it is attached. *)

val detach : unit -> unit

val enabled : Aitf_engine.Sim.t -> bool
(** [true] iff [sim] has a collector. *)

(** {1 Recording (no-ops when the world has no collector)} *)

(** Each call records into its world's collector at the world's current
    time. *)

val root :
  Aitf_engine.Sim.t -> corr:int -> flow:string -> victim:string -> unit
(** Open the root span for [corr] (first {e real} writer wins; an orphan
    placeholder for [corr] gets its identity filled in). *)

val start :
  Aitf_engine.Sim.t -> corr:int -> stage:stage -> node:string -> unit
(** Open a child span. Ignored when no root for [corr] exists (e.g. a
    forged request with corr 0) — unless orphans are allowed, in which
    case a placeholder root is created. *)

val finish :
  ?node:string -> Aitf_engine.Sim.t -> corr:int -> stage:stage -> unit
(** Close the most recently opened still-open span for [(corr, stage)] —
    restricted to spans opened by [node] when given (a stage can be open
    on several nodes at once during escalation). No-op when none is
    open: receivers close spans openers may never have started. *)

val event : ?node:string -> Aitf_engine.Sim.t -> corr:int -> string -> unit
(** Attach a point event: to the newest open span of [corr] (on [node]
    when given), else to the root. *)

val root_event : Aitf_engine.Sim.t -> corr:int -> string -> unit
(** Attach a point event directly to [corr]'s root, never to an open
    span. Use for annotations whose source is not a stage of the request
    (the fluid mirror, auditors): "newest open span" depends on which
    collector saw which opens, so root attachment is the only placement
    that is invariant across shard layouts. *)

val bind_nonce : Aitf_engine.Sim.t -> corr:int -> nonce:int64 -> unit
(** Remember that a handshake [nonce] belongs to [corr], so layers that
    only see the query/reply (the fault injector) can annotate the right
    tree. *)

val corr_of_nonce : Aitf_engine.Sim.t -> nonce:int64 -> int option

val event_by_nonce : Aitf_engine.Sim.t -> nonce:int64 -> string -> unit
(** {!event} via {!corr_of_nonce}; no-op for unknown nonces. *)

val complete : Aitf_engine.Sim.t -> corr:int -> unit
(** Mark the request completed (long filter installed). Fires the SLO
    breach callback ({!set_slo}) when the time since [opened_at] exceeds
    the objective. First completion wins. Orphan placeholders record the
    completion but defer SLO evaluation to {!merge_into}. *)

val set_slo : t -> seconds:float -> (root -> unit) -> unit
(** Latency objective: a root completing after more than [seconds] since
    it opened invokes the callback (used to auto-dump the
    {!Flight} recorder on anomalies). *)

(** {1 Shard merge} *)

val merge_into : t -> t list -> unit
(** [merge_into master shards] folds every shard collector (and the
    master's own records) into [master]: orphan placeholders contribute
    their spans, events and completion times to the real root of the
    same correlation id (earliest completion wins, matching sequential
    first-completion-wins); orphan-only roots — ids with no real root
    anywhere, i.e. forged — are dropped. Roots are then re-keyed
    [1..N] in canonical (opened_at, victim, flow) order with spans and
    events sorted deterministically, and the master's SLO callback is
    fired for breaching completed roots in that order. It is {!key}'s
    join, which the parallel scheduler runs once after each sharded
    run. *)

val digest : t -> string
(** Hex fingerprint of the span forest, independent of raw correlation
    ids and hash-table order: roots canonically ordered and re-keyed as
    in {!merge_into}, spans/events deterministically sorted, times
    printed round-trip exactly. Equal digests at different shard counts
    mean the merged trace is the same trace. *)

(** {1 Queries} *)

val roots : t -> root list
(** All roots, sorted by correlation id. *)

val find_root : t -> int -> root option

val spans_of : root -> span list
(** Child spans in opening order. *)

val events_of : span -> event list
(** Span events in emission order. *)

val duration : span -> float option
(** [finished_at - started_at] when closed. *)

val completed_roots : t -> root list
(** Roots with [completed_at] set, sorted by correlation id. *)

(** {1 Export} *)

val to_chrome_trace : now:float -> t -> Json.t
(** Chrome trace-event JSON ([{"traceEvents": [...]}]), loadable in
    Perfetto: one "process" per node, one "thread" per flow
    (tid = correlation id). Durations are complete ("X") events in
    microseconds; span/root events become instant ("i") events; spans
    still open are closed at [now] for display. Output is sorted and
    deterministic. *)

val summary : ?percentiles:float list -> t -> string
(** Human-readable critical-path summary: per-stage duration
    percentiles across all roots (default p50/p90/p99) plus, per
    percentile, which stage dominated time-to-filter. *)

val timeline : t -> string
(** The span forest as text, one line per moment in time order:
    ["%10.4f  [node] #corr what"], where [what] is a root's opening (with
    its flow), a span's [start]/[finish] with its stage, or an event
    label. An event is tagged with the node that recorded it, else with
    its span's node, else with the victim. What [aitf_sim run --trace]
    prints. *)
