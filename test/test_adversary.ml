(* Tests for aitf_adversary: the playbooks that attack AITF itself, and the
   overload manager's end-to-end effect under the flagship slot-exhaustion
   scenario (ISSUE 3 acceptance criteria). *)

open Aitf_net
open Aitf_core
module Adversary = Aitf_adversary.Adversary
module Overload = Aitf_filter.Overload
module Scenarios = Aitf_workload.Scenarios
module Chain = Aitf_topo.Chain
module Metrics = Aitf_obs.Metrics
module Report = Aitf_obs.Report
module Json = Aitf_obs.Json

let check = Alcotest.check
let checkb = check Alcotest.bool
let checki = check Alcotest.int
let checks = check Alcotest.string

let cfg =
  {
    (Config.with_timescale Config.default 0.1) with
    Config.t_tmp = 0.5;
    grace = 0.3;
  }

(* The acceptance scenario: a 32-slot table per gateway, one gateway per
   side, and a botnet rotating 128 spoofed sources (4x capacity) at twice
   the victim's tail bandwidth. With only 64 exact slots in the whole
   network the baseline leaks; the manager must not. *)
let slot_params ~manager =
  {
    Scenarios.default_chain with
    Scenarios.spec = { Chain.default_spec with Chain.depth = 1 };
    config =
      {
        cfg with
        Config.filter_capacity = 32;
        overload_manager = manager;
        overload_low = 0.5;
      };
    duration = 30.;
    td = 0.1;
    attack_rate = 2e7;
    legit_rate = 6e6;
    in_pool_legit_rate = 5e5;
    adversaries = [ Adversary.Slot_exhaustion { sources = 128; rate = 2e7 } ];
  }

(* --- The flagship acceptance criterion ------------------------------------ *)

let test_manager_beats_baseline () =
  let off = Scenarios.run_chain (slot_params ~manager:false) in
  let on = Scenarios.run_chain (slot_params ~manager:true) in
  checkb "baseline leaks the attack" true
    (off.Scenarios.attack_received_bytes
    > 2. *. on.Scenarios.attack_received_bytes);
  checkb "manager strictly improves victim goodput" true
    (on.Scenarios.good_received_bytes > off.Scenarios.good_received_bytes);
  checkb "manager aggregated" true (on.Scenarios.overload_aggregations > 0);
  checkb "manager evicted" true (on.Scenarios.overload_evictions > 0);
  checkb "collateral damage is measured, not hidden" true
    (on.Scenarios.collateral_packets > 0
    && on.Scenarios.collateral_bytes >= on.Scenarios.collateral_packets);
  (* The baseline path never exercises the manager. *)
  checki "no aggregations without the manager" 0
    off.Scenarios.overload_aggregations;
  checki "no collateral without the manager" 0 off.Scenarios.collateral_packets

let test_json_report_surfaces_overload () =
  let reg = Metrics.create () in
  Metrics.attach reg;
  let r = Scenarios.run_chain (slot_params ~manager:true) in
  Metrics.detach ();
  let report = Report.make ~now:30. reg in
  let values =
    match Report.values_of_json report with
    | Ok vs -> vs
    | Error e -> Alcotest.fail ("report did not round-trip: " ^ e)
  in
  let value name =
    match List.assoc_opt name values with
    | Some (Metrics.Counter v) | Some (Metrics.Gauge v) -> v
    | Some (Metrics.Histogram _) -> Alcotest.fail (name ^ " is a histogram")
    | None -> Alcotest.fail ("missing metric " ^ name)
  in
  (* Degraded-mode gauge is present (0 or 1 at end of run). *)
  let g = value "gateway.G_gw1.overload.degraded" in
  checkb "degraded gauge is boolean" true (g = 0. || g = 1.);
  checkb "aggregations exported" true
    (value "gateway.G_gw1.overload.overload-aggregate" > 0.);
  checkb "evictions exported" true
    (List.fold_left
       (fun acc c ->
         acc
         +. value ("gateway.G_gw1.overload." ^ Overload.counter_name c))
       0.
       Overload.[ Evict; Evict_requestor_cap; Evict_subsumed ]
    > 0.);
  checkb "collateral exported and matches the run" true
    (value "gateway.G_gw1.overload.collateral_packets"
     +. value "gateway.B_gw1.overload.collateral_packets"
    = float_of_int r.Scenarios.collateral_packets);
  checkb "adversary instrumented" true
    (value "adversary.slot-exhaustion.packet-sent" > 0.)

(* --- Determinism ----------------------------------------------------------- *)

let fingerprint (r : Scenarios.chain_result) =
  ( r.Scenarios.attack_received_bytes,
    r.Scenarios.good_received_bytes,
    r.Scenarios.requests_sent,
    r.Scenarios.escalations,
    r.Scenarios.overload_aggregations,
    r.Scenarios.overload_evictions,
    r.Scenarios.collateral_packets,
    List.map
      (fun h ->
        Adversary.
          ( count h Packet_sent,
            count h Request_sent,
            count h Replay_sent,
            count h Guess_sent,
            count h Stamp_forged ))
      r.Scenarios.adversary_handles )

let test_seeded_replay_bit_identical () =
  (* Every playbook in one run, twice, same seed: all randomness flows from
     the seeded Rng, so the replay must agree on every observable. *)
  let params =
    {
      (slot_params ~manager:true) with
      Scenarios.duration = 15.;
      adversaries =
        [
          Adversary.Slot_exhaustion { sources = 128; rate = 1e7 };
          Adversary.Shadow_exhaustion { flows = 512; rate = 100. };
          Adversary.Request_flood { rate = 200. };
          Adversary.Reply_replay { delay = 0.3; guess_rate = 20. };
          Adversary.Route_forgery { innocent = Addr.of_string "192.0.2.1" };
        ];
    }
  in
  let a = fingerprint (Scenarios.run_chain params) in
  let b = fingerprint (Scenarios.run_chain params) in
  checkb "bit-identical replay" true (a = b)

let test_default_run_untouched () =
  (* No adversaries + an unfilled table: the manager must be invisible, so
     a default run behaves identically whether it is configured or not. *)
  let base manager =
    {
      Scenarios.default_chain with
      Scenarios.config = { cfg with Config.overload_manager = manager };
      duration = 30.;
      td = 0.1;
      legit_rate = 1e6;
    }
  in
  let off = fingerprint (Scenarios.run_chain (base false)) in
  let on = fingerprint (Scenarios.run_chain (base true)) in
  checkb "manager transparent below its watermark" true (off = on)

(* --- The other playbooks --------------------------------------------------- *)

let run_with ?(duration = 20.) playbook =
  Scenarios.run_chain
    {
      Scenarios.default_chain with
      Scenarios.config = cfg;
      duration;
      td = 0.1;
      attack_rate = 1e6;
      adversaries = [ playbook ];
    }

let test_shadow_exhaustion_burns_r1 () =
  (* The insider's request flood is clamped by its own R1 contract: the
     gateway admits at most ~R1 requests/s of the flood and the protocol
     still suppresses the real attack. *)
  let r =
    run_with (Adversary.Shadow_exhaustion { flows = 4096; rate = 500. })
  in
  let adv = List.hd r.Scenarios.adversary_handles in
  checkb "flood emitted" true (Adversary.(count adv Request_sent) > 1000);
  let policer_drops =
    Scenarios.counter_total r.Scenarios.deployed.Chain.victim_gateways
      Gateway.Req_policed
  in
  checkb "policer sheds most of the flood" true
    (policer_drops > Adversary.(count adv Request_sent) / 2);
  checkb "real attack still suppressed" true (r.Scenarios.r_measured < 0.1)

let test_reply_replay_defeated () =
  let r = run_with (Adversary.Reply_replay { delay = 0.3; guess_rate = 50. }) in
  let adv = List.hd r.Scenarios.adversary_handles in
  checkb "replays fired" true
    (Adversary.(count adv Replay_sent + count adv Guess_sent) > 0);
  (* The nonce table eats replays and guesses; filtering still converges. *)
  checkb "attack still suppressed" true (r.Scenarios.r_measured < 0.1)

let test_route_forgery_recovered () =
  let r =
    run_with (Adversary.Route_forgery { innocent = Addr.of_string "192.0.2.1" })
  in
  let adv = List.hd r.Scenarios.adversary_handles in
  checkb "stamps rewritten" true (Adversary.(count adv Stamp_forged) > 0);
  (* Traceback is poisoned, so attacker-side cooperation is lost — but the
     victim's own gateways still bound the damage. *)
  checkb "protection still lands victim-side" true
    (r.Scenarios.r_measured < 0.2)

(* --- CLI spec parsing ------------------------------------------------------ *)

let test_playbook_spec_roundtrip () =
  List.iter
    (fun s ->
      match Adversary.playbook_of_string s with
      | Ok p -> checks s s (Adversary.playbook_to_string p)
      | Error e -> Alcotest.fail (s ^ ": " ^ e))
    [
      "slot-exhaustion:sources=128,rate=2e+06";
      "shadow-exhaustion:flows=4096,rate=200";
      "request-flood:rate=1000";
      "reply-replay:delay=0.5,guess-rate=50";
      "route-forgery:innocent=192.0.2.1";
    ]

let test_playbook_spec_defaults_and_errors () =
  (match Adversary.playbook_of_string "slot-exhaustion" with
  | Ok (Adversary.Slot_exhaustion { sources = 128; _ }) -> ()
  | _ -> Alcotest.fail "defaults expected");
  List.iter
    (fun s ->
      checkb s true (Result.is_error (Adversary.playbook_of_string s)))
    [
      "unknown-playbook";
      "slot-exhaustion:bogus=1";
      "slot-exhaustion:sources=abc";
      "route-forgery:innocent=not-an-addr";
    ]

let () =
  Alcotest.run "aitf_adversary"
    [
      ( "overload_acceptance",
        [
          Alcotest.test_case "manager beats baseline at 4x capacity" `Slow
            test_manager_beats_baseline;
          Alcotest.test_case "JSON report surfaces overload metrics" `Slow
            test_json_report_surfaces_overload;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeded replay is bit-identical" `Slow
            test_seeded_replay_bit_identical;
          Alcotest.test_case "default runs untouched" `Slow
            test_default_run_untouched;
        ] );
      ( "playbooks",
        [
          Alcotest.test_case "shadow exhaustion burns R1" `Slow
            test_shadow_exhaustion_burns_r1;
          Alcotest.test_case "reply replay defeated" `Slow
            test_reply_replay_defeated;
          Alcotest.test_case "route forgery recovered" `Slow
            test_route_forgery_recovered;
        ] );
      ( "spec_parsing",
        [
          Alcotest.test_case "roundtrip" `Quick test_playbook_spec_roundtrip;
          Alcotest.test_case "defaults and errors" `Quick
            test_playbook_spec_defaults_and_errors;
        ] );
    ]
