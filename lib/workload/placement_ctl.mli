(** Managed filter-placement controllers: Optimal and Adaptive.

    The counterpart of the {!Aitf_core.Placement} seam. A controller owns
    long-filter placement for every gateway holding its handle: gateways
    report attack evidence instead of propagating requests, and the
    controller installs/reclaims prefix filters directly in the gateways'
    tables each decision epoch ([config.placement_epoch]). Installed
    filters reach the rate domain through the fluid engine's table
    mirroring, exactly like protocol-installed ones.

    {b Optimal} (El Defrawy/Markopoulou/Argyraki, "Optimal Filtering of
    Source Address Prefixes", PAPERS.md): each epoch, re-solve the filter
    selection from the oracle view of the attack-source set — every active
    attack aggregate towards a reported victim becomes a candidate prefix
    filter at its source-domain gateway, scored by attack rate blocked
    minus legitimate rate caught (the collateral), and installed greedily
    under the per-gateway slot budget.

    {b Adaptive} (Li et al., "Adaptive Distributed Filtering", PAPERS.md):
    no oracle. Evidence plants a coarse wildcard at the reporting gateway;
    each epoch the controller walks its filter frontier one hop towards
    the sources along the aggregate paths that actually cross it,
    narrowing the label to the attack range as it goes, and stops renewing
    filters whose traffic has vanished (slot reclamation). Feedback comes
    from the fluid aggregates' live rates, the filter tables'
    {!Aitf_filter.Filter_table.subscribe} change feed (external evictions
    re-enter the frontier) and hit counters.

    All decisions iterate aggregates in insertion order and gateways in
    array order — same seed and policy, same placements, bit for bit. *)

open Aitf_core
module Fluid = Aitf_flowsim.Fluid

type t

val create :
  ?defer:((unit -> unit) -> unit) ->
  ?suspect_rate:float ->
  policy:Placement.policy ->
  fluid:Fluid.t ->
  Config.t ->
  t
(** Build a controller and start its decision loop on the fluid engine's
    simulator (epoch = [config.placement_epoch]; the loop reschedules
    itself forever, so bound runs with [Sim.run ~until]). [policy] must be
    [Optimal] or [Adaptive]. [suspect_rate] (default 10 Mb/s) is the
    Adaptive policy's observed-rate threshold above which a source range
    is treated as attacking. [?defer] wraps gateway evidence reports
    before they touch controller state (default: immediate); the parallel
    engine passes [Sched.defer] to move them to barriers.
    @raise Invalid_argument on [Vanilla] (there is nothing to control). *)

val handle : t -> Placement.t
(** The seam handle to pass to {!Aitf_core.Gateway.create} (and to
    {!Aitf_topo.As_graph.deploy}). *)

val register_gateways :
  ?defer:((unit -> unit) -> unit) -> t -> Gateway.t array -> unit
(** Tell the controller which gateways it may place filters in (typically
    every deployed gateway). Must be called before the first evidence
    arrives; also subscribes the Adaptive feedback to each table.
    [?defer] wraps the eviction-feedback callback (default: immediate);
    the parallel engine passes [Sched.defer] so shard-phase evictions
    touch controller state only at barriers. *)

val flag_gateway : t -> Aitf_net.Addr.t -> unit
(** A contract auditor convicted this gateway of lying about its filters
    (docs/CONTRACTS.md): reclaim every controller-owned filter placed
    there and treat it as zero-capacity from now on — candidate chains
    skip it, so the next epoch re-solves the placement around the hole.
    Idempotent. *)

val flagged_gateway : t -> Aitf_net.Addr.t -> bool

val sorted_bindings :
  cmp:('k * 'v -> 'k * 'v -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** [Hashtbl.fold] enumerates bindings in hash-bucket order — a function
    of the OCaml version and hash seed, not of the scenario. Every
    controller traversal that drives installs or removes goes through
    this instead: fold, then sort by [cmp]. Exposed so the tier-1 suite
    can pin the property (sorted output, insertion-order independence)
    directly on the helper all decision paths share. *)

(* Statistics *)

val evidence : t -> int  (** evidence reports received *)

val installs : t -> int  (** filter installs + refreshes issued *)

val reclaims : t -> int
(** filters actively removed (Adaptive pushes and idle reclamation) *)

val pushes : t -> int
(** Adaptive frontier moves towards the sources (0 for Optimal) *)
