(* An operator's view of a DDoS response, as periodic dashboards.

   A zombie army floods a server; every five simulated seconds the example
   prints what a network operator would watch: the victim's tail circuit,
   the AITF gateways' filter tables and decision counters. Run with:

     dune exec examples/operator_console.exe
*)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Table = Aitf_stats.Table
module Series = Aitf_stats.Series
open Aitf_net
open Aitf_core
open Aitf_topo
module Traffic = Aitf_workload.Traffic
module Report = Aitf_workload.Report
module Runner = Aitf_workload.Runner

let () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:4 in
  let spec =
    { Hierarchy.default_spec with Hierarchy.isps = 2; nets_per_isp = 2; hosts_per_net = 3 }
  in
  let t = Hierarchy.build sim spec in
  let config =
    { (Config.with_timescale Config.default 0.1) with Config.grace = 0.3 }
  in
  let d = Hierarchy.deploy ~config ~rng t in
  let victim_node = Hierarchy.host t ~isp:0 ~net:0 ~host:0 in
  let victim =
    Hierarchy.attach_victim ~td:0.1 d ~config ~isp:0 ~net:0 ~host:0
  in
  (* A legit client and four zombies in the other ISP. *)
  ignore
    (Traffic.cbr ~start:0. ~flow_id:1 ~rate:2e5 ~dst:victim_node.Node.addr
       t.Hierarchy.net
       (Hierarchy.host t ~isp:0 ~net:1 ~host:0));
  for z = 0 to 3 do
    let agent =
      Hierarchy.attach_attacker ~strategy:Policy.Ignores d ~config ~isp:1
        ~net:(z mod 2) ~host:(z / 2)
    in
    ignore
      (Traffic.cbr
         ~gate:(Host_agent.Attacker.gate agent)
         ~start:3.0 ~attack:true ~flow_id:(100 + z) ~rate:2e6
         ~dst:victim_node.Node.addr t.Hierarchy.net
         (Hierarchy.host t ~isp:1 ~net:(z mod 2) ~host:(z / 2)))
  done;
  let gateways =
    Array.to_list d.Hierarchy.isp_gateways
    @ List.concat_map Array.to_list (Array.to_list (Array.map Fun.id d.Hierarchy.net_gateways))
  in
  (* The attack bits/s reaching the victim over the last second, sampled
     every second. *)
  let rate = Runner.victim_rate sim ~period:1.0 ~until:16.0 None in
  print_endline "=== operator console: 4 zombies hit at t = 3 s ===";
  List.iter
    (fun at ->
      Sim.run ~until:at sim;
      Printf.printf "\n########## t = %.0f s ##########\n" at;
      Printf.printf "attack bandwidth at victim: %.0f bit/s; requests sent: %d\n\n"
        (List.assoc at (Series.points rate))
        (Host_agent.Victim.requests_sent victim);
      Table.print (Report.gateway_table gateways))
    [ 2.; 5.; 10.; 15. ];
  Sim.run ~until:16.0 sim;
  print_endline
    "\nBetween t = 2 and t = 5 the zombies' own enterprise gateways pick up\n\
     the long filters; by t = 10 the victim-side tables are empty again and\n\
     the attack bandwidth at the victim is zero."
