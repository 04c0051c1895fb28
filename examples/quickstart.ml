(* Quickstart: the paper's Figure-1 scenario, end to end.

   B_host floods G_host; G_host asks its gateway for help; the request is
   propagated to B_gw1, verified with the 3-way handshake, and the flow is
   blocked one hop from its source. Run with:

     dune exec examples/quickstart.exe
*)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Span = Aitf_obs.Span
module Series = Aitf_stats.Series
open Aitf_net
open Aitf_core
open Aitf_topo
module Traffic = Aitf_workload.Traffic
module Runner = Aitf_workload.Runner

let () =
  (* Collect the causal span forest; its timeline is printed after the run. *)
  let spans = Span.create () in
  Span.attach spans;

  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in

  (* The Figure-1 topology: G_host - G_gw1 - G_gw2 - G_gw3 = B_gw3 - B_gw2 -
     B_gw1 - B_host, with a 10 Mbit/s tail circuit on each side. *)
  let topo = Chain.build sim Chain.default_spec in

  (* Protocol parameters scaled so one blocking cycle fits the demo:
     T = 6 s instead of the paper's 60 s. *)
  let config = Config.with_timescale Config.default 0.1 in

  (* Everyone speaks AITF; the attacker complies when asked (it prefers
     stopping one flow to losing connectivity). *)
  let d = Chain.deploy ~attacker_strategy:Policy.Complies ~config ~rng topo in

  (* B_host starts a 2 Mbit/s undesired flow towards G_host at t = 1 s. *)
  let (_ : Traffic.t) =
    Traffic.cbr
      ~gate:(Host_agent.Attacker.gate d.Chain.attacker_agent)
      ~start:1.0 ~attack:true ~flow_id:1 ~rate:2e6
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in

  (* The attack bits/s reaching the victim, over a 1 s window. *)
  let rate = Runner.victim_rate sim ~period:0.5 ~until:10.0 None in

  print_endline "=== AITF quickstart: Figure-1 attack path ===";
  print_endline "    (timeline below: time [node] #request event)";
  Sim.run ~until:10.0 sim;
  Span.detach ();
  print_string (Span.timeline spans);

  let victim = d.Chain.victim_agent in
  Printf.printf "\n--- after 10 simulated seconds ---\n";
  Printf.printf "attack bytes that reached the victim : %8.0f B\n"
    (Runner.delivered sim None ~attack:true);
  Printf.printf "attack bytes offered by the attacker : %8.0f B\n"
    (2e6 *. 9.0 /. 8.);
  Printf.printf "effective bandwidth right now        : %8.0f bit/s\n"
    (match Series.last rate with Some (_, bps) -> bps | None -> 0.);
  Printf.printf "filtering requests sent by the victim: %8d\n"
    (Host_agent.Victim.requests_sent victim);
  Printf.printf "flow stopped at the source           : %8s\n"
    (let stopped =
       Host_agent.Attacker.(count d.Chain.attacker_agent Flow_stopped)
     in
     if stopped > 0 then "yes" else "no");
  let b_gw1 = List.hd d.Chain.attacker_gateways in
  Printf.printf "filters held at B_gw1                : %8d (peak %d)\n"
    (Aitf_filter.Filter_table.occupancy (Gateway.filters b_gw1))
    (Aitf_filter.Filter_table.peak_occupancy (Gateway.filters b_gw1));
  let g_gw1 = List.hd d.Chain.victim_gateways in
  Printf.printf "filters held at G_gw1                : %8d (peak %d)\n"
    (Aitf_filter.Filter_table.occupancy (Gateway.filters g_gw1))
    (Aitf_filter.Filter_table.peak_occupancy (Gateway.filters g_gw1));
  print_endline
    "\nThe victim's gateway only ever held its temporary filter; the flow\n\
     is blocked at the AITF node closest to the attacker, as Section II-D\n\
     describes."
