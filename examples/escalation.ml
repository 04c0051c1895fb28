(* Escalation through non-cooperating gateways (Section II-D's worst case).

   Every attacker-side gateway ignores filtering requests. Round by round,
   the mechanism climbs: G_gw1 asks B_gw1 (ignored), escalates to G_gw2 who
   asks B_gw2 (ignored), escalates to G_gw3 who asks B_gw3 (ignored) — and
   finally G_gw3 filters the flow itself and, with enforcement on,
   disconnects the peering. The bystander inside B_net shows the collateral
   cost of that last resort. Run with:

     dune exec examples/escalation.exe
*)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Span = Aitf_obs.Span
open Aitf_net
open Aitf_core
open Aitf_topo
module Series = Aitf_stats.Series
module Traffic = Aitf_workload.Traffic
module Runner = Aitf_workload.Runner

let () =
  let spans = Span.create () in
  Span.attach spans;
  let sim = Sim.create () in
  let rng = Rng.create ~seed:3 in
  let topo = Chain.build sim Chain.default_spec in
  let config =
    {
      (Config.with_timescale Config.default 0.1) with
      Config.grace = 0.3;
      disconnect = true;
    }
  in
  let d =
    Chain.deploy ~attacker_strategy:Policy.Ignores
      ~attacker_gw_policies:(Chain.non_cooperating 3) ~config ~rng topo
  in
  let (_ : Traffic.t) =
    Traffic.cbr
      ~gate:(Host_agent.Attacker.gate d.Chain.attacker_agent)
      ~start:1.0 ~attack:true ~flow_id:1 ~rate:2e6
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in
  (* An innocent flow from inside the rogue ISP. *)
  let bystander_delivered = ref 0 in
  let prev = topo.Chain.victim.Node.local_deliver in
  topo.Chain.victim.Node.local_deliver <-
    (fun node (pkt : Packet.t) ->
      (match pkt.Packet.payload with
      | Packet.Data { flow_id = 2; _ } -> incr bystander_delivered
      | _ -> ());
      prev node pkt);
  let (_ : Traffic.t) =
    Traffic.cbr ~start:0. ~flow_id:2 ~rate:2e5
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.bystander
  in
  let rate = Runner.victim_rate sim ~period:0.5 ~until:8.0 None in
  print_endline "=== escalation with a fully non-cooperative attacker side ===\n";
  Sim.run ~until:8.0 sim;
  Span.detach ();
  print_string (Span.timeline spans);
  print_newline ();
  List.iteri
    (fun i gw ->
      Printf.printf "G_gw%d: escalations=%d, temp filters=%d, long filters=%d\n"
        (i + 1)
        (Gateway.count gw Gateway.Escalated)
        (Gateway.count gw Gateway.Filter_temp)
        (Gateway.count gw Gateway.Filter_long
        + Gateway.count gw Gateway.Filter_long_self))
    d.Chain.victim_gateways;
  List.iteri
    (fun i gw ->
      Printf.printf "B_gw%d: requests ignored=%d\n" (i + 1)
        (Gateway.count gw Gateway.Ignored_unresponsive))
    d.Chain.attacker_gateways;
  Printf.printf "\nattack bandwidth at the victim now: %.0f bit/s\n"
    (match Series.last rate with Some (_, bps) -> bps | None -> 0.);
  Printf.printf "bystander packets that still got through: %d\n"
    !bystander_delivered;
  print_endline
    "\nFiltering climbed one AITF node per round and ended at the victim's\n\
     own top-level provider — with the peering to the rogue ISP cut, the\n\
     bystander pays the price of its provider's non-cooperation."
