(** Packaged experiment scenarios.

    The single-attacker chain scenario (Figure 1) parameterised along every
    axis the evaluation sweeps: attack rate, number of non-cooperating
    attacker-side gateways, attacker strategy, protocol config, traceback
    source. Running it returns the measurements the paper's formulas
    predict — above all the effective-bandwidth ratio r — plus the raw
    series and deployment handles for deeper inspection. *)

open Aitf_core
open Aitf_topo
module Series = Aitf_stats.Series
module Fluid = Aitf_flowsim.Fluid

type chain_params = {
  spec : Chain.spec;
  config : Config.t;
  seed : int;
  duration : float;  (** simulated seconds *)
  attack_rate : float;  (** bits/s *)
  attack_start : float;
  legit_rate : float;  (** bystander -> victim rate; 0 disables *)
  n_non_coop_gws : int;  (** unresponsive attacker-side gateways *)
  attacker_strategy : Policy.attacker_response;
  td : float;  (** victim detection delay Td *)
  path_source : Host_agent.path_source;
  traceback : [ `Path_in_request | `Spie | `Ppm ];
      (** [`Path_in_request] uses [path_source] as given (route record by
          default); [`Spie] and [`Ppm] deploy and instrument that mechanism
          on the topology and override [path_source] and the config's
          traceback mode accordingly. *)
  sample_period : float;  (** victim-rate sampling period *)
  ctrl_faults : Aitf_fault.Fault.model list;
      (** fault models injected on {e control} packets crossing the
          victim's tail circuit, both directions (empty = pristine links;
          the RNG is untouched then, so runs replay bit-identically) *)
  tail_flap : (float * float) option;
      (** [(period, down_for)]: flap the whole victim tail circuit on a
          fixed schedule *)
  adversaries : Aitf_adversary.Adversary.playbook list;
      (** protocol-level adversary playbooks to launch (empty = none; the
          RNG and the topology are untouched then, so runs replay
          bit-identically) *)
  adversary_start : float;  (** when the playbooks open fire *)
  in_pool_legit_rate : float;
      (** bits/s from a legitimate host whose address sits inside the
          spoofed-source pool — the collateral-damage witness; 0 disables
          (the node is only added when adversaries are present) *)
}

val default_chain : chain_params
(** Figure-1 defaults: 3-deep chain, T = 60 s, 1 Mbit/s attack starting at
    t = 1 s, ignoring attacker, all gateways cooperative, Td = 100 ms,
    route-record traceback, 300 s horizon. *)

type chain_result = {
  params : chain_params;
  deployed : Chain.deployed;
  attack_offered_bytes : float;
      (** what the flow would have delivered unimpeded *)
  attack_received_bytes : float;  (** what actually reached the victim *)
  r_measured : float;  (** received / offered — the measured r *)
  good_offered_bytes : float;
  good_received_bytes : float;
  victim_rate : Series.t;
      (** windowed attack bandwidth (bits/s) at the victim over time *)
  escalations : int;  (** total across victim-side gateways *)
  requests_sent : int;  (** by the victim host *)
  requests_retransmitted : int;  (** by the victim host, on silence *)
  ctrl_retransmits : int;
      (** filtering requests resent by gateways whose counterpart stayed
          silent, summed over every gateway *)
  ctrl_gave_up : int;
      (** flows whose gateway exhausted its retry budget and escalated (or
          filtered terminally) on silence *)
  faults_injected : int;
      (** control packets deliberately dropped by the [ctrl_faults] models *)
  adversary_handles : Aitf_adversary.Adversary.t list;
      (** one per launched playbook, in [adversaries] order *)
  overload_aggregations : int;
      (** exact-filter groups folded into prefix wildcards, summed over
          every gateway's overload manager (0 without the manager) *)
  overload_evictions : int;
  collateral_packets : int;
      (** legitimate packets dropped by manager-installed aggregates *)
  collateral_bytes : int;
  sampler : Aitf_obs.Sampler.t option;
      (** started (at [sample_period]) iff a metrics registry was attached
          via {!Aitf_obs.Metrics.attach} before the run *)
  fluid : Fluid.t option;
      (** the fluid engine, iff the config selected {!Config.Hybrid} *)
  events_processed : int;
      (** discrete events executed — the engine-comparison cost metric *)
}

val run_chain : chain_params -> chain_result

val time_to_suppress : chain_result -> threshold:float -> float option
(** First time after the attack started at which the victim-observed attack
    bandwidth fell (and stayed, for one sample) below [threshold] × the
    offered rate. *)

val counter_total : Gateway.t list -> Gateway.counter -> int
(** Sum one counter over several gateways. *)

(** {1 Distributed flood on the provider hierarchy}

    The multi-zombie scenario shared by the DDoS example, the scaling
    bench and the CLI: a victim server in ISP 0 / net 0, legitimate
    clients probing it, and a zombie army spread round-robin over the
    other ISPs. *)

type flood_params = {
  hierarchy : Hierarchy.spec;
  flood_config : Config.t;
  flood_seed : int;
  flood_duration : float;
  zombies : int;
  zombie_rate : float;  (** bits/s each *)
  zombie_strategy : Policy.attacker_response;
  legit_clients : int;  (** spread over the victim's ISP *)
  legit_rate : float;  (** bits/s each *)
  attack_start : float;
  with_aitf : bool;
  flood_sample_period : float;  (** metric sampling period when attached *)
}

val default_flood : flood_params
(** 3×3×3 hierarchy, 12 ignoring zombies at 1 Mbit/s, 2 legit clients,
    T = 6 s config, AITF on. *)

type flood_result = {
  flood_params : flood_params;
  hierarchy_deployed : Hierarchy.deployed option;
  victim : Host_agent.Victim.t option;
  zombies_placed : int;
  legit_received_bytes : float;
  legit_offered_bytes : float;
  flood_attack_received_bytes : float;
  leaf_filters : int;
      (** long-filter installs at enterprise gateways — one per zombie per
          T cycle while the attack lasts *)
  isp_filters : int;
  flood_sampler : Aitf_obs.Sampler.t option;
      (** started iff a metrics registry was attached before the run *)
  flood_fluid : Fluid.t option;
      (** the fluid engine, iff the config selected {!Config.Hybrid} *)
  flood_events : int;
  flood_ledger : Aitf_obs.Ledger.t;  (** the run's byte ledger *)
}

val check_flood : flood_params -> (unit, string) result
(** [Error] when the zombie rate is not positive or the legit rate is
    negative. A legit rate of 0 places no legit clients. *)

val run_flood : flood_params -> flood_result
(** @raise Invalid_argument when {!check_flood} fails. *)

(** {1 Massive swarm (hybrid engine only)}

    The scaling scenario: the Figure-1 chain augmented with spoofed-source
    pool nodes, each advertising a /12 so one fluid aggregate can stand in
    for up to 2^20 attacking sources. Runs the fluid data plane
    unconditionally (the packet engine cannot represent these populations),
    with the packet-level AITF control plane — detection, handshakes,
    filters — driven by sampled probes exactly as in hybrid chain runs. *)

type swarm_params = {
  swarm_spec : Chain.spec;
  swarm_config : Config.t;
      (** [hybrid_epoch] and [hybrid_probe_rate] are honoured; the [engine]
          field is ignored — this scenario is always hybrid *)
  swarm_seed : int;
  swarm_duration : float;
  swarm_sources : int;  (** total attacking sources, split over the pools *)
  swarm_pools : int;  (** aggregates / origin pool nodes (1..16) *)
  swarm_attack_rate : float;  (** total bits/s across all sources *)
  swarm_legit_rate : float;  (** bystander -> victim rate; 0 disables *)
  swarm_attack_start : float;
  swarm_td : float;
  swarm_sample_period : float;
}

val default_swarm : swarm_params
(** 1000 sources over 4 pools, 20 Mbit/s total against the 10 Mbit/s tail,
    30 s horizon. *)

type swarm_result = {
  swarm_params : swarm_params;
  swarm_deployed : Chain.deployed;
  swarm_fluid : Fluid.t;
  swarm_good_offered_bytes : float;
  swarm_good_received_bytes : float;
  swarm_attack_received_bytes : float;
  swarm_victim_rate : Series.t;
  swarm_requests_sent : int;  (** by the victim host *)
  swarm_filters : int;
      (** temp + long filter installs over every gateway *)
  swarm_absorbed : int;
      (** To_attacker requests absorbed at pool nodes (no hosts behind a
          spoofed pool to deliver them to) *)
  swarm_events : int;
  swarm_sampler : Aitf_obs.Sampler.t option;
}

val check_swarm : swarm_params -> (unit, string) result
(** [Error] when the pool/source counts are out of range: pools in 1..16,
    at least one and at most 2^20 sources per pool. *)

val run_swarm : swarm_params -> swarm_result
(** @raise Invalid_argument when {!check_swarm} fails. *)
