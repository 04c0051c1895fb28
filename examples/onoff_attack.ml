(* The "on-off" game (Section II-B) and why the shadow cache matters.

   A non-cooperative attacker gateway ignores filtering requests, and the
   attacker stops sending just long enough for the victim's gateway to drop
   its temporary filter, then resumes. The DRAM shadow of the request
   recognises the flow the moment it reappears and escalates to the next
   gateway up the path. The example contrasts the shadow-enabled run with
   a crippled run whose shadow horizon equals the temporary filter (so
   reappearance looks like a brand-new flow each time). Run with:

     dune exec examples/onoff_attack.exe
*)

open Aitf_core
module Scenarios = Aitf_workload.Scenarios

let base_config =
  { (Config.with_timescale Config.default 0.1) with Config.grace = 0.3 }

let run ~label ~shadow_horizon =
  let config = { base_config with Config.t_filter = shadow_horizon } in
  (* t_filter doubles as the shadow TTL; to cripple the shadow while keeping
     the attacker-side blocking interval comparable we instead shorten the
     whole horizon — the contrast below uses leak ratios, which stay
     comparable. *)
  let params =
    {
      Scenarios.default_chain with
      Scenarios.config;
      duration = 60.;
      n_non_coop_gws = 1;
      attacker_strategy = Policy.On_off { off_time = config.Config.t_tmp +. 0.2 };
      td = 0.1;
    }
  in
  let r = Scenarios.run_chain params in
  Printf.printf "%-28s leaked %7.0f of %8.0f bytes (r = %.4f), escalations = %d\n"
    label r.Scenarios.attack_received_bytes r.Scenarios.attack_offered_bytes
    r.Scenarios.r_measured r.Scenarios.escalations;
  r

let () =
  print_endline "=== on-off attacker vs the shadow cache ===";
  print_endline "B_gw1 ignores requests; the attacker plays on-off.\n";
  let with_shadow = run ~label:"with shadow (T = 6 s)" ~shadow_horizon:6.0 in
  let weak_shadow = run ~label:"short shadow (T = 1.5 s)" ~shadow_horizon:1.5 in
  print_newline ();
  Printf.printf
    "With the full-T shadow the gateway escalates past the complicit B_gw1\n\
     (%d escalations) and the flow stays dead between cycles. With a shadow\n\
     that barely outlives the temporary filter, every reappearance is\n\
     treated as new and the attacker leaks on every round (r %.4f vs %.4f).\n"
    with_shadow.Scenarios.escalations weak_shadow.Scenarios.r_measured
    with_shadow.Scenarios.r_measured
