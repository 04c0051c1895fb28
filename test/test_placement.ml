(* Tests for the filter-placement seam (Placement / Placement_ctl) and the
   Internet-scale AS scenario that exercises it. *)

module Series = Aitf_stats.Series
module Filter_table = Aitf_filter.Filter_table
open Aitf_core
open Aitf_topo
module As_scenario = Aitf_workload.As_scenario
module Placement_ctl = Aitf_workload.Placement_ctl

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* --- policy parsing --------------------------------------------------------- *)

let test_policy_parsing () =
  List.iter
    (fun p ->
      match Placement.policy_of_string (Placement.policy_to_string p) with
      | Ok p' -> checkb "roundtrip" true (p = p')
      | Error e -> Alcotest.fail e)
    Placement.all_policies;
  checkb "case-insensitive" true
    (Placement.policy_of_string "OPTIMAL" = Ok Placement.Optimal);
  checkb "unknown rejected" true
    (match Placement.policy_of_string "magic" with
    | Error _ -> true
    | Ok _ -> false)

let test_vanilla_handle_inert () =
  checkb "vanilla unmanaged" false (Placement.managed Placement.vanilla);
  let p =
    Placement.create ~policy:Placement.Optimal ~report:(fun (_ : Placement.evidence) -> ())
  in
  checkb "optimal managed" true (Placement.managed p)

(* --- the AS scenario, one run per policy ------------------------------------ *)

let small_spec = { As_graph.default_spec with As_graph.domains = 80 }

let small_params policy =
  {
    As_scenario.default with
    As_scenario.as_spec = small_spec;
    as_config =
      {
        Config.default with
        Config.engine = Config.Hybrid;
        placement = policy;
        placement_epoch = 0.25;
      };
    as_seed = 7;
    as_duration = 10.;
    as_sources = 4_000;
    as_attack_domains = 8;
    as_legit_domains = 4;
    as_legit_sources = 800;
    as_attack_rate = 160e6;
    as_legit_rate = 4e6;
  }

let test_vanilla_runs () =
  let r = As_scenario.run (small_params Placement.Vanilla) in
  checkb "no controller" true (r.As_scenario.r_ctl = None);
  checkb "victim requested filters" true (r.As_scenario.r_requests_sent > 0);
  checki "no placement reports" 0 r.As_scenario.r_reports;
  checkb "collateral in [0,1]" true
    (r.As_scenario.r_collateral_fraction >= 0.
    && r.As_scenario.r_collateral_fraction <= 1.);
  checkb "events processed" true (r.As_scenario.r_events > 0)

(* The victim's rate window counts sample intervals. Under vanilla
   placement this run's victim tail stays saturated, so once the window
   has filled the delivered attack rate is steady. A window cut off by
   float time over sample times summed from [+. 0.1] would hold 11
   intervals from t = 4.2 s and step the series up by a tenth. *)
let test_victim_rate_window_steady () =
  let p =
    {
      As_scenario.default with
      As_scenario.as_spec = small_spec;
      as_config = { Config.default with Config.engine = Config.Hybrid };
      as_duration = 8.;
      as_sources = 4_000;
      as_attack_domains = 8;
      as_legit_domains = 4;
      as_legit_sources = 800;
      as_sample_period = 0.1;
    }
  in
  let r = As_scenario.run p in
  let filled = p.As_scenario.as_attack_start +. 1. +. 0.05 in
  let rec steady = function
    | (t0, v0) :: ((t1, v1) :: _ as rest) ->
      if Float.abs (v1 -. v0) > 0.01 *. v0 then
        Alcotest.failf "rate moved from %.0f at %.2f s to %.0f at %.2f s" v0
          t0 v1 t1;
      steady rest
    | _ -> ()
  in
  let points =
    List.filter (fun (t, _) -> t > filled) (Series.points r.As_scenario.r_victim_rate)
  in
  checkb "saturated" true (List.for_all (fun (_, v) -> v > 50e6) points);
  steady points

let test_optimal_suppresses () =
  let r = As_scenario.run (small_params Placement.Optimal) in
  let ctl =
    match r.As_scenario.r_ctl with
    | Some c -> c
    | None -> Alcotest.fail "optimal run has no controller"
  in
  checkb "evidence reported" true (Placement_ctl.evidence ctl > 0);
  checkb "controller installed filters" true (Placement_ctl.installs ctl > 0);
  checki "optimal never walks a frontier" 0 (Placement_ctl.pushes ctl);
  (match r.As_scenario.r_time_to_filter with
  | Some t -> checkb "suppressed quickly" true (t < 5.)
  | None -> Alcotest.fail "optimal never suppressed the attack");
  (* The oracle covers the attack /17s, which are disjoint from every
     legitimate range: collateral stays negligible. *)
  checkb "collateral negligible" true
    (r.As_scenario.r_collateral_fraction < 0.05)

let test_adaptive_walks_and_suppresses () =
  let r = As_scenario.run (small_params Placement.Adaptive) in
  let ctl =
    match r.As_scenario.r_ctl with
    | Some c -> c
    | None -> Alcotest.fail "adaptive run has no controller"
  in
  checkb "evidence reported" true (Placement_ctl.evidence ctl > 0);
  checkb "controller installed filters" true (Placement_ctl.installs ctl > 0);
  checkb "frontier moved towards the sources" true
    (Placement_ctl.pushes ctl > 0);
  match r.As_scenario.r_time_to_filter with
  | Some t -> checkb "suppressed" true (t < r.As_scenario.r_params.As_scenario.as_duration)
  | None -> Alcotest.fail "adaptive never suppressed the attack"

(* --- determinism ------------------------------------------------------------ *)

(* Everything placement decides, reduced to a comparable value: where
   filters went (per-gateway install/peak counts plus the resident
   filters with their install times — the realized placement order),
   what the victim saw (the full rate series) and the scenario
   totals. *)
let fingerprint (r : As_scenario.result) =
  let label_compare = Aitf_filter.Flow_label.compare in
  let per_gw =
    Array.to_list
      (Array.map
         (fun gw ->
           let t = Gateway.filters gw in
           let resident =
             List.map
               (fun h -> (Filter_table.label h, Filter_table.installed_at h))
               (Filter_table.live_entries t)
             |> List.sort (fun (l1, t1) (l2, t2) ->
                    let c = label_compare l1 l2 in
                    if c <> 0 then c else Float.compare t1 t2)
           in
           (Filter_table.installs t, Filter_table.peak_occupancy t, resident))
         r.As_scenario.r_gateways)
  in
  ( per_gw,
    Series.points r.As_scenario.r_victim_rate,
    ( r.As_scenario.r_collateral_fraction,
      r.As_scenario.r_time_to_filter,
      r.As_scenario.r_slots_peak,
      r.As_scenario.r_filters_installed,
      r.As_scenario.r_events ) )

(* The candidate-enumeration helper every decision path folds through:
   output must be sorted by [cmp] and independent of Hashtbl bucket
   layout (here varied via insertion order). *)
let test_sorted_bindings () =
  let cmp (a, _) (b, _) = compare (a : int) b in
  let enumerate order =
    let tbl = Hashtbl.create 7 in
    List.iter (fun k -> Hashtbl.replace tbl k (k * 2)) order;
    Placement_ctl.sorted_bindings ~cmp tbl
  in
  let keys = [ 9; 3; 27; 1; 14; 0; 255; 8; 7; 100 ] in
  let a = enumerate keys in
  let b = enumerate (List.rev keys) in
  checkb "insertion-order independent" true (a = b);
  let rec sorted = function
    | (k1, _) :: ((k2, _) :: _ as rest) -> k1 < k2 && sorted rest
    | _ -> true
  in
  checkb "sorted ascending" true (sorted a);
  checki "all bindings kept" (List.length keys) (List.length a)

let test_placement_deterministic () =
  List.iter
    (fun policy ->
      let a = fingerprint (As_scenario.run (small_params policy)) in
      let b = fingerprint (As_scenario.run (small_params policy)) in
      checkb
        (Printf.sprintf "%s: same seed, same placements"
           (Placement.policy_to_string policy))
        true (a = b))
    Placement.all_policies

let test_policies_differ () =
  let v = fingerprint (As_scenario.run (small_params Placement.Vanilla)) in
  let o = fingerprint (As_scenario.run (small_params Placement.Optimal)) in
  let a = fingerprint (As_scenario.run (small_params Placement.Adaptive)) in
  checkb "vanilla <> optimal" true (v <> o);
  checkb "optimal <> adaptive" true (o <> a)

let test_seed_changes_scenario () =
  let run seed =
    fingerprint
      (As_scenario.run
         { (small_params Placement.Optimal) with As_scenario.as_seed = seed })
  in
  checkb "different seeds differ" true (run 7 <> run 8)

let () =
  Alcotest.run "aitf_placement"
    [
      ( "seam",
        [
          Alcotest.test_case "policy parsing" `Quick test_policy_parsing;
          Alcotest.test_case "vanilla handle inert" `Quick
            test_vanilla_handle_inert;
        ] );
      ( "as_scenario",
        [
          Alcotest.test_case "vanilla" `Quick test_vanilla_runs;
          Alcotest.test_case "victim rate window steady" `Quick
            test_victim_rate_window_steady;
          Alcotest.test_case "optimal" `Quick test_optimal_suppresses;
          Alcotest.test_case "adaptive" `Quick
            test_adaptive_walks_and_suppresses;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "candidate order sorted" `Quick
            test_sorted_bindings;
          Alcotest.test_case "same seed same placements" `Quick
            test_placement_deterministic;
          Alcotest.test_case "policies differ" `Quick test_policies_differ;
          Alcotest.test_case "seeds differ" `Quick test_seed_changes_scenario;
        ] );
    ]
