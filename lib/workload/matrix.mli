(** The golden-trace differential matrix.

    One cell per supported topology x engine x fault x adversary x
    placement combination, each a small, fast, fully deterministic
    scenario. Running a cell produces a canonical JSON document (schema
    [aitf.matrix-cell/1], serialized with the byte-stable
    {!Aitf_obs.Json} codec): the cell's dimensions, its outcome scalars,
    the victim-rate series, and a causal-span digest. Documents are
    byte-compared against checked-in goldens under [test/goldens/] — any
    behaviour change anywhere in the stack shows up as a drift diff, and
    intentional changes are re-blessed with [aitf_sim matrix --bless].

    Cells that differ only in engine are also paired and their received
    byte counts compared, extending E17's 10% packet-vs-hybrid agreement
    gate from two chain scenarios to the whole matrix. As in E17, the
    gate counts victim goodput; attack bytes — a few-packet transient
    before filters install, intrinsically engine-sensitive — are
    reported but informational. Pairs whose cell injects faults or
    adversaries are not gated either: the fault realizations ride
    engine-specific packet streams, so the two engines see different
    (equally valid) draws.

    See docs/GOLDENS.md for the cell list and the blessing procedure. *)

type cell = {
  id : string;
      (** [<topo>-<engine>-<fault>-<adversary>-<placement>], with a
          [-shard<N>] suffix when the cell pins a shard count > 1 *)
  topo : string;
      (** [chain], [flood], [swarm], [internet], or [replay-<shape>] *)
  engine : string;  (** [packet] or [hybrid] *)
  fault : string;  (** [pristine], [loss] or [burst] *)
  adversary : string;
      (** [calm], [slotx], or — internet only — [contract] (verifiable
          contracts on, all gateways honest) / [lying] (contracts on, a
          quarter of attack-side gateways forging receipts) *)
  placement : string;  (** [vanilla], [optimal] or [adaptive] *)
  shards : int;
      (** event-queue shards the cell pins (internet only); 1-shard cells
          follow the runner's [?shards] instead *)
  smoke : bool;  (** in the reduced CI set *)
  scenario : Scenario.any;
      (** what the cell runs; the string fields above are its labels in the
          golden document *)
}

val cells : cell list
(** Every cell, in canonical (execution) order. *)

val agreement_threshold : float
(** Relative packet-vs-hybrid difference gated on — 0.10, as in E17. *)

type perf = {
  wall : float;  (** seconds, by the ambient [Sim.clock] *)
  alloc_bytes : float;  (** GC-allocated bytes during the cell *)
  peak_queue : int;
      (** peak event-queue depth (engine profiler), one event per busy
          link: [peak_queue_depth] in the bench JSON *)
  engine_events : int;  (** discrete events executed *)
}

type status =
  | Match  (** document byte-identical to the checked-in golden *)
  | Drift  (** document differs from the golden *)
  | Missing  (** no golden on disk (and not blessing) *)
  | Blessed  (** golden (re)written by this run *)

type cell_result = {
  cr_cell : cell;
  cr_doc : string;  (** the serialized cell document *)
  cr_outcome : (string * Aitf_obs.Json.t) list;
  cr_perf : perf;
  cr_digest : string;
      (** canonical span-forest digest ({!Aitf_obs.Span.digest}) —
          invariant across shard counts for a fixed cell body, which the
          CI traced-shard job asserts *)
  cr_status : status;
}

type pair = {
  pr_base : string;  (** cell id with the engine dimension elided *)
  pr_metric : string;  (** outcome key compared *)
  pr_packet : float;
  pr_hybrid : float;
  pr_diff : float;  (** relative difference *)
  pr_gated : bool;
      (** counts against the gate (goodput on pristine + calm pairs) *)
  pr_ok : bool;  (** within {!agreement_threshold}, or ungated *)
}

type summary = {
  s_results : cell_result list;
  s_pairs : pair list;
  s_drifted : int;  (** cells with [Drift] status *)
  s_missing : int;  (** cells with [Missing] status *)
  s_disagreements : int;  (** gated pairs over the threshold *)
}

val run :
  ?only:string list ->
  ?smoke:bool ->
  ?bless:bool ->
  ?shards:int ->
  goldens_dir:string ->
  unit ->
  summary
(** Execute the matrix (all cells, the [?smoke] subset, or just [?only]
    ids) and byte-compare each document against
    [goldens_dir/<id>.json]. [?bless] writes the documents instead of
    comparing (creating the directory if needed). {!perf}'s wall time is
    read off the ambient [Sim.clock]. Every cell runs in fresh worlds,
    whose correlation ids start at 1, so each document is independent
    of execution order. Each cell ends with {!Aitf_obs.Ledger.check} on
    its world's byte ledger (shard worlds joined in).
    @raise Failure naming the cell when a ledger does not conserve.

    [?shards > 1] runs every unpinned internet cell (contract cells
    included — the auditor replays through the scheduler's defer seam) on
    the parallel engine with that many shards; cells that pin their own
    shard count (the [-shard<N>] cells) keep it. Span tracing stays on at
    any shard count: workers record into per-shard collectors merged
    canonically after the run, so {!cell_result.cr_digest} is comparable
    across shard counts. Sharded documents still legitimately differ
    from the 1-shard goldens in outcome scalars (event interleaving), so
    pair [?shards > 1] with [?bless] into a scratch directory and
    compare across repeated runs — the determinism regime the CI stress
    job enforces. *)

val cells_table : title:string -> summary -> Aitf_stats.Table.t
(** One row per cell: golden status and perf. *)

val pairs_table : title:string -> summary -> Aitf_stats.Table.t
(** One row per engine pair and metric, with its verdict. *)

val print_summary : summary -> unit
(** Both tables and the verdict line on stdout. *)

val bench_json : summary -> Aitf_obs.Json.t
(** Per-cell perf trajectory (schema [aitf.matrix-bench/1]) — what CI
    uploads as [BENCH_E19.json]. *)
