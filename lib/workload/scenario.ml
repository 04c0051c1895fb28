module Json = Aitf_obs.Json
module Series = Aitf_stats.Series
module Auditor = Aitf_contract.Auditor

type _ t =
  | Chain : Scenarios.chain_params -> Scenarios.chain_result t
  | Flood : Scenarios.flood_params -> Scenarios.flood_result t
  | Swarm : Scenarios.swarm_params -> Scenarios.swarm_result t
  | Internet : As_scenario.params -> As_scenario.result t
  | Replay : Replay.trace * Aitf_core.Config.engine -> Replay.result t

type any = Any : _ t -> any

type 'r outcome = {
  result : 'r;
  fields : (string * Json.t) list;
  victim_rate : Series.t;
  sampler : Aitf_obs.Sampler.t option;
  ledger : Aitf_obs.Ledger.t;
  events : int;
  parallel : Json.t option;
}

let check : type r. r t -> (unit, string) result = function
  | Chain _ -> Ok ()
  | Flood p -> Scenarios.check_flood p
  | Swarm p -> Scenarios.check_swarm p
  | Internet p -> As_scenario.check p
  | Replay (trace, _) -> Replay.check trace

let duration : type r. r t -> float = function
  | Chain p -> p.Scenarios.duration
  | Flood p -> p.Scenarios.flood_duration
  | Swarm p -> p.Scenarios.swarm_duration
  | Internet p -> p.As_scenario.as_duration
  | Replay (trace, _) -> trace.Replay.tr_duration

let fl x = Json.Float x
let it n = Json.Int n

let sequential result fields victim_rate sampler ledger events =
  { result; fields; victim_rate; sampler; ledger; events; parallel = None }

let ledger_of net = Aitf_obs.Ledger.of_sim (Aitf_net.Network.sim net)

(* Outcome keys are shared across scenarios where the quantity is the same
   thing (attack/good received bytes), so engine pairs can compare them;
   their order is the golden documents' order. *)
let run : type r. r t -> r outcome = function
  | Chain p ->
    let open Scenarios in
    let r = run_chain p in
    let d = r.deployed in
    sequential r
      [
        ("attack_offered_bytes", fl r.attack_offered_bytes);
        ("attack_received_bytes", fl r.attack_received_bytes);
        ("good_offered_bytes", fl r.good_offered_bytes);
        ("good_received_bytes", fl r.good_received_bytes);
        ("r_measured", fl r.r_measured);
        ("escalations", it r.escalations);
        ("requests_sent", it r.requests_sent);
        ( "filters",
          it
            (Runner.filter_installs
               (d.Aitf_topo.Chain.victim_gateways
               @ d.Aitf_topo.Chain.attacker_gateways)) );
        ("faults_injected", it r.faults_injected);
        ("collateral_packets", it r.collateral_packets);
        ("events", it r.events_processed);
      ]
      r.victim_rate r.sampler
      (ledger_of d.Aitf_topo.Chain.topo.Aitf_topo.Chain.net)
      r.events_processed
  | Flood p ->
    let open Scenarios in
    let r = run_flood p in
    sequential r
      [
        ("attack_received_bytes", fl r.flood_attack_received_bytes);
        ("good_offered_bytes", fl r.legit_offered_bytes);
        ("good_received_bytes", fl r.legit_received_bytes);
        ("zombies_placed", it r.zombies_placed);
        ("leaf_filters", it r.leaf_filters);
        ("isp_filters", it r.isp_filters);
        ("events", it r.flood_events);
      ]
      (Series.create ~name:"victim-attack-rate" ())
      r.flood_sampler r.flood_ledger r.flood_events
  | Swarm p ->
    let open Scenarios in
    let r = run_swarm p in
    sequential r
      [
        ("attack_received_bytes", fl r.swarm_attack_received_bytes);
        ("good_offered_bytes", fl r.swarm_good_offered_bytes);
        ("good_received_bytes", fl r.swarm_good_received_bytes);
        ("requests_sent", it r.swarm_requests_sent);
        ("filters", it r.swarm_filters);
        ("absorbed", it r.swarm_absorbed);
        ("events", it r.swarm_events);
      ]
      r.swarm_victim_rate r.swarm_sampler
      (ledger_of r.swarm_deployed.Aitf_topo.Chain.topo.Aitf_topo.Chain.net)
      r.swarm_events
  | Internet p ->
    let open As_scenario in
    let r = run p in
    let audit =
      match r.r_auditor with
      | None -> []
      | Some a ->
        let byz = List.map snd r.r_byzantine in
        let flagged = Auditor.flagged a in
        let missed = List.filter (fun b -> not (List.mem b flagged)) byz in
        let false_pos = List.filter (fun g -> not (List.mem g byz)) flagged in
        [
          ("byzantine", it (List.length byz));
          ("flagged", it (List.length flagged));
          ("missed", it (List.length missed));
          ("false_positives", it (List.length false_pos));
          ("receipts_verified", it (Auditor.count a Auditor.Receipt_verified));
          ("receipts_rejected", it (Auditor.count a Auditor.Receipt_rejected));
          ("failovers", it r.r_failovers);
        ]
    in
    let o =
      sequential r
        ([
          ("attack_received_bytes", fl r.r_attack_received_bytes);
          ("good_offered_bytes", fl r.r_good_offered_bytes);
          ("good_received_bytes", fl r.r_good_received_bytes);
          ("collateral_fraction", fl r.r_collateral_fraction);
          ( "time_to_filter",
            match r.r_time_to_filter with Some t -> fl t | None -> Json.Null
          );
          ("slots_peak", it r.r_slots_peak);
          ("filters_installed", it r.r_filters_installed);
          ("requests_sent", it r.r_requests_sent);
          ("reports", it r.r_reports);
          ("absorbed", it r.r_absorbed);
          ("events", it r.r_events);
        ]
        @ audit)
        r.r_victim_rate None
        (ledger_of (Aitf_topo.As_graph.net r.r_graph))
        r.r_events
    in
    { o with parallel = r.r_parallel }
  | Replay (trace, engine) ->
    let open Replay in
    let config = { Aitf_core.Config.default with engine } in
    let r = run ~config trace in
    sequential r
      [
        ("trace", Json.String (to_string trace));
        ("attack_offered_bytes", fl r.rr_attack_offered_bytes);
        ("attack_received_bytes", fl r.rr_attack_received_bytes);
        ("good_offered_bytes", fl r.rr_good_offered_bytes);
        ("good_received_bytes", fl r.rr_good_received_bytes);
        ("requests_sent", it r.rr_requests_sent);
        ("filters", it r.rr_filters);
        ("absorbed", it r.rr_absorbed);
        ("events", it r.rr_events);
      ]
      r.rr_victim_rate None r.rr_ledger r.rr_events
