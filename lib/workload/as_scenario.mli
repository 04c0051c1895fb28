(** Internet-scale scenario: a generated AS topology under DDoS, with
    pluggable filter placement.

    Builds an {!Aitf_topo.As_graph} Internet (hundreds to thousands of
    gateway domains), puts the victim in a stub domain and spreads
    10^5–10^6 attack sources over fluid source pools in randomly chosen
    domains, then runs the hybrid engine with one of the three placement
    policies from [config.placement]:

    - {!Aitf_core.Placement.Vanilla} — classic AITF escalate-upstream;
    - {!Aitf_core.Placement.Optimal} — oracle per-epoch filter selection
      ([Placement_ctl]);
    - {!Aitf_core.Placement.Adaptive} — feedback-driven frontier walking
      ([Placement_ctl]).

    Scoring covers the three axes docs/PLACEMENT.md compares policies on:
    collateral damage (legitimate traffic lost), filter-slot usage (peak
    occupancy summed over gateways) and time-to-filter (victim relief).
    Fully deterministic for a given seed, policy included. *)

open Aitf_net
open Aitf_core
open Aitf_topo
module Fluid = Aitf_flowsim.Fluid
module Series = Aitf_stats.Series
module Auditor = Aitf_contract.Auditor
module Adversary = Aitf_adversary.Adversary

type params = {
  as_spec : As_graph.spec;
  as_config : Config.t;  (** [placement] selects the policy *)
  as_seed : int;
  as_duration : float;
  as_sources : int;  (** total attack sources, spread over attack domains *)
  as_attack_domains : int;  (** domains hosting an attack pool (>= 1) *)
  as_legit_domains : int;  (** domains hosting a legitimate pool (>= 1) *)
  as_legit_sources : int;  (** total legitimate sources *)
  as_attack_rate : float;  (** total attack bits/s across all sources *)
  as_legit_rate : float;  (** total legitimate bits/s across all sources *)
  as_attack_start : float;
  as_td : float;  (** victim detection delay *)
  as_sample_period : float;  (** victim-rate series sampling period *)
  as_contracts : bool;
      (** enable verifiable filtering contracts: signed requests, install
          receipts, a victim-side auditor and Byzantine-gateway failover
          (docs/CONTRACTS.md). [false] reproduces pre-contract runs bit
          for bit. *)
  as_byzantine_fraction : float;
      (** fraction (in [0,1]) of on-path gateways corrupted to the lying
          mode at setup; ignored unless [as_contracts] *)
  as_lying_mode : Adversary.lying_mode;  (** how corrupted gateways cheat *)
  as_contract : Contract.t option;
      (** provider-side R1/R2 contract applied on every provider->customer
          edge at deploy (independent of [as_contracts]; [None] keeps the
          config defaults) *)
  as_audit : Auditor.config;  (** auditor tuning (deadline, k, backoff) *)
  as_shards : int;
      (** simulation shards (>= 1). [1] runs the sequential engine and is
          bit-identical to the pre-sharding scenario; [> 1] partitions the
          domains over that many event-queue shards synchronized by
          conservative lookahead windows (docs/PARALLEL.md). Deterministic
          for fixed (seed, shards); outcome scalars vary slightly across
          shard counts. *)
}

val default : params
(** 1000 domains, 10^5 attack sources over 40 domains, 10^4 legitimate
    sources over 10 domains, 200 Mb/s of attack against a 100 Mb/s victim
    access link, vanilla placement, 30 simulated seconds. *)

type result = {
  r_params : params;
  r_graph : As_graph.t;
  r_gateways : Gateway.t array;
  r_fluid : Fluid.t;
  r_ctl : Placement_ctl.t option;  (** present for managed policies *)
  r_victim_domain : int;
  r_good_offered_bytes : float;
  r_good_received_bytes : float;
  r_attack_received_bytes : float;
  r_collateral_fraction : float;
      (** legitimate traffic lost / offered — 0 is perfect *)
  r_victim_rate : Series.t;  (** attack bits/s reaching destinations *)
  r_time_to_filter : float option;
      (** seconds from attack start until the victim's attack rate falls
          below 5% of the offered rate and stays there; [None] = still
          above when the run ended *)
  r_slots_peak : int;  (** sum of per-gateway peak filter occupancy *)
  r_filters_installed : int;  (** successful installs over all tables *)
  r_requests_sent : int;  (** victim filtering requests *)
  r_reports : int;  (** placement-evidence reports (managed policies) *)
  r_absorbed : int;  (** To_attacker requests absorbed by source pools *)
  r_events : int;
  r_auditor : Auditor.t option;  (** present when [as_contracts] *)
  r_byzantine : (int * Addr.t) list;
      (** corrupted gateways as (domain, address), sorted by domain *)
  r_failovers : int;
      (** contract entries the victim's gateway re-engaged past flagged
          peers *)
  r_shards : int;  (** echo of [as_shards] *)
  r_sched_stats : Aitf_parallel.Sched.stats;
      (** synchronization-window counters; all zeros when [as_shards = 1] *)
  r_parallel : Aitf_obs.Json.t option;
      (** the run report's ["parallel"] telemetry section — shard count,
          lookahead, synchronization counters, per-shard event breakdown
          and (when a metrics registry was attached) the per-window
          timeline; [None] when [as_shards = 1] *)
}

val check : params -> (unit, string) Stdlib.result
(** [Error] when the population does not fit the address plan (at most
    2^15 attack sources and 2^14 legitimate sources per domain), the pool
    domains outnumber the non-tier-1 domains other than the victim's, or
    [as_shards < 1]. *)

val run : params -> result
(** Observability composes with sharding: an attached span collector,
    flight recorder, profiler, metrics registry or contract auditor all
    work at any [as_shards]. The parallel scheduler forks the collector,
    ring and profiler into each shard world and joins them back after the
    run (spans re-keyed canonically, flight records interleaved by (time,
    shard, seq), profiler buckets summed), so the caller's instances hold
    the whole run; victim-side auditor observations replay through
    [Sched.defer] at barriers. See docs/PARALLEL.md and
    docs/OBSERVABILITY.md.

    @raise Invalid_argument when {!check} fails. *)
