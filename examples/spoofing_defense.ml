(* The 3-way handshake vs forged filtering requests (Sections II-E, III-B).

   A compromised host M forges a filtering request asking B_host's gateway
   to block the legitimate flow B_host -> G_host. With the handshake
   enabled, the gateway first asks G_host "do you really not want this
   flow?" — and G_host, who never complained, stays silent, so the request
   dies. With the handshake disabled the forged request kills the flow.
   Run with:

     dune exec examples/spoofing_defense.exe
*)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
open Aitf_net
open Aitf_filter
open Aitf_core
open Aitf_topo
module Traffic = Aitf_workload.Traffic
module Runner = Aitf_workload.Runner

let run ~handshake =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let topo = Chain.build sim Chain.default_spec in
  (* M lives inside B_net too, one hop from the gateway it tries to abuse. *)
  let m =
    Network.add_node topo.Chain.net ~name:"M" ~addr:(Addr.of_octets 20 0 0 99)
      ~as_id:101 Node.Host
  in
  ignore
    (Network.connect topo.Chain.net (List.hd topo.Chain.attacker_gws) m
       ~bandwidth:1e7 ~delay:0.01);
  Network.compute_routes topo.Chain.net;
  let config =
    { (Config.with_timescale Config.default 0.1) with Config.handshake }
  in
  let d = Chain.deploy ~attacker_strategy:Policy.Complies ~config ~rng topo in
  (* The legitimate flow under attack-by-forgery. *)
  let (_ : Traffic.t) =
    Traffic.cbr ~start:0. ~flow_id:1 ~rate:1e6
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in
  (* M forges the request at t = 2 s, and again every second (it is
     persistent). *)
  let b_gw1_node = List.hd topo.Chain.attacker_gws in
  let flow =
    Flow_label.host_pair topo.Chain.attacker.Node.addr
      topo.Chain.victim.Node.addr
  in
  let forged =
    {
      Message.flow;
      target = Message.To_attacker_gateway;
      duration = config.Config.t_filter;
      path = [ b_gw1_node.Node.addr ];
      hops = 0;
      requestor = m.Node.addr;
      corr = 0;
      auth = 0L;
    }
  in
  for i = 0 to 7 do
    ignore
      (Sim.at sim
         (2.0 +. float_of_int i)
         (fun () ->
           Network.originate topo.Chain.net m
             (Message.packet ~src:m.Node.addr ~dst:b_gw1_node.Node.addr
                (Message.Filtering_request forged))))
  done;
  Sim.run ~until:12.0 sim;
  let b_gw1 = List.hd d.Chain.attacker_gateways in
  let received = Runner.delivered sim None ~attack:false in
  let offered = 1e6 *. 12.0 /. 8. in
  (received, offered, Gateway.count b_gw1 Gateway.Handshake_fail,
   Filter_table.occupancy (Gateway.filters b_gw1))

let () =
  print_endline "=== forged filtering requests vs the 3-way handshake ===\n";
  let on, offered, fails_on, filters_on = run ~handshake:true in
  let off, _, _, filters_off = run ~handshake:false in
  Printf.printf "handshake ON : legit flow delivered %7.0f / %.0f bytes (%.0f%%)\n"
    on offered (100. *. on /. offered);
  Printf.printf "               forged requests rejected by verification: %d\n"
    fails_on;
  Printf.printf "               filters wrongly installed: %d\n\n" filters_on;
  Printf.printf "handshake OFF: legit flow delivered %7.0f / %.0f bytes (%.0f%%)\n"
    off offered (100. *. off /. offered);
  Printf.printf "               filters wrongly installed: %d\n\n" filters_off;
  print_endline
    "An off-path forger never sees the nonce the gateway sends to the\n\
     flow's destination, so with the handshake on it cannot get a filter\n\
     installed — exactly the argument of Section III-B."
