(* Tests for aitf_workload: traffic sources, the request driver and the
   packaged chain scenario. *)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Ledger = Aitf_obs.Ledger
open Aitf_net
module Traffic = Aitf_workload.Traffic
module Request_driver = Aitf_workload.Request_driver
module Scenarios = Aitf_workload.Scenarios
open Aitf_core

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let addr = Addr.of_string

(* Two hosts on a fat link; returns a counter of delivered packets. *)
let pair () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let a = Network.add_node net ~name:"a" ~addr:(addr "1.0.0.1") ~as_id:1 Node.Host in
  let b = Network.add_node net ~name:"b" ~addr:(addr "2.0.0.1") ~as_id:2 Node.Host in
  ignore (Network.connect net a b ~bandwidth:1e9 ~delay:0.001);
  Network.compute_routes net;
  let received = ref [] in
  b.Node.local_deliver <- (fun _ pkt -> received := pkt :: !received);
  (sim, net, a, b, received)

let test_cbr_rate () =
  let sim, net, a, b, received = pair () in
  (* 8 Mbit/s in 1000 B packets = 1000 packets/s for 1 s. *)
  let src =
    Traffic.cbr ~flow_id:1 ~rate:8e6 ~dst:b.Node.addr net a
  in
  Sim.run ~until:1.0 sim;
  checkb "~1000 packets sent" true (abs (Traffic.sent_packets src - 1000) <= 1);
  checkb "all delivered" true
    (abs (List.length !received - Traffic.sent_packets src) <= 2);
  checki "bytes offered" (Traffic.sent_packets src * 1000)
    (int_of_float Ledger.(offered_bytes (of_sim sim) Legit))

let test_cbr_start_stop () =
  let sim, net, a, b, received = pair () in
  ignore received;
  let src =
    Traffic.cbr ~start:2.0 ~stop:3.0 ~flow_id:1 ~rate:8e5 ~dst:b.Node.addr net a
  in
  Sim.run ~until:1.9 sim;
  checki "nothing before start" 0 (Traffic.sent_packets src);
  Sim.run ~until:10.0 sim;
  (* 1 s window at 100 pkt/s *)
  checkb "one second's worth" true (abs (Traffic.sent_packets src - 100) <= 1)

let test_halt () =
  let sim, net, a, b, _ = pair () in
  let src = Traffic.cbr ~flow_id:1 ~rate:8e5 ~dst:b.Node.addr net a in
  ignore (Sim.at sim 0.5 (fun () -> Traffic.halt src));
  Sim.run ~until:2.0 sim;
  checkb "halted near 50" true (abs (Traffic.sent_packets src - 50) <= 2)

let test_gate_suppression () =
  let sim, net, a, b, received = pair () in
  let odd = ref false in
  let gate _ =
    odd := not !odd;
    !odd
  in
  let src = Traffic.cbr ~gate ~flow_id:1 ~rate:8e5 ~dst:b.Node.addr net a in
  Sim.run ~until:1.0 sim;
  let gated = Ledger.(packets (of_sim sim) Legit Gated) in
  checkb "half gated" true (abs (gated - 50) <= 2);
  checki "every emission offered" (gated + Traffic.sent_packets src)
    Ledger.(offered_packets (of_sim sim) Legit);
  checkb "half sent" true (abs (Traffic.sent_packets src - 50) <= 2);
  checkb "received matches sent" true
    (abs (List.length !received - Traffic.sent_packets src) <= 2)

let test_spoofing_applied () =
  let sim, net, a, b, received = pair () in
  let spoofed = addr "99.99.99.99" in
  let (_ : Traffic.t) =
    Traffic.cbr
      ~spoof:(fun () -> Some spoofed)
      ~flow_id:1 ~rate:8e5 ~dst:b.Node.addr net a
  in
  Sim.run ~until:0.1 sim;
  (match !received with
  | pkt :: _ ->
    checkb "header spoofed" true (Addr.equal pkt.Packet.src spoofed);
    checkb "true src preserved" true (Addr.equal pkt.Packet.true_src a.Node.addr)
  | [] -> Alcotest.fail "no packets")

let test_attack_flag () =
  let sim, net, a, b, received = pair () in
  let (_ : Traffic.t) =
    Traffic.cbr ~attack:true ~flow_id:5 ~rate:8e5 ~dst:b.Node.addr net a
  in
  Sim.run ~until:0.1 sim;
  match !received with
  | pkt :: _ -> (
    match pkt.Packet.payload with
    | Packet.Data { flow_id; attack } ->
      checki "flow id" 5 flow_id;
      checkb "attack flag" true attack
    | _ -> Alcotest.fail "wrong payload")
  | [] -> Alcotest.fail "no packets"

let test_poisson_mean_rate () =
  let sim, net, a, b, _ = pair () in
  let rng = Rng.create ~seed:42 in
  let src =
    Traffic.poisson ~rng ~flow_id:1 ~rate:8e5 ~dst:b.Node.addr net a
  in
  Sim.run ~until:20.0 sim;
  (* 100 pkt/s * 20 s = 2000 expected; Poisson sd ~ 45. *)
  checkb "mean rate within 10%" true
    (abs (Traffic.sent_packets src - 2000) < 200)

let test_label_helper () =
  let sim, net, a, b, _ = pair () in
  ignore sim;
  let src = Traffic.cbr ~flow_id:1 ~rate:8e5 ~dst:b.Node.addr net a in
  let l = Traffic.label src ~src:a.Node.addr in
  checkb "label matches" true
    (Aitf_filter.Flow_label.equal l
       (Aitf_filter.Flow_label.host_pair a.Node.addr b.Node.addr))

let test_invalid_rate () =
  let _, net, a, b, _ = pair () in
  checkb "rejects zero rate" true
    (try
       ignore (Traffic.cbr ~flow_id:1 ~rate:0. ~dst:b.Node.addr net a);
       false
     with Invalid_argument _ -> true)

(* --- Request driver ---------------------------------------------------------- *)

let test_driver_rate_and_indices () =
  let sim, net, a, b, received = pair () in
  let mk i =
    {
      Message.flow =
        Aitf_filter.Flow_label.host_pair (Addr.add (addr "5.0.0.0") i) b.Node.addr;
      target = Message.To_victim_gateway;
      duration = 60.;
      path = [];
      hops = 0;
      requestor = a.Node.addr;
      corr = 0;
      auth = 0L;
    }
  in
  let d =
    Request_driver.create ~rate:10. ~dst:b.Node.addr ~make_request:mk net a
  in
  Sim.run ~until:1.05 sim;
  checkb "~10 requests" true (abs (Request_driver.sent d - 11) <= 1);
  (* Distinct flows per index. *)
  let flows =
    List.filter_map
      (fun (pkt : Packet.t) ->
        match pkt.Packet.payload with
        | Message.Filtering_request r -> Some r.Message.flow
        | _ -> None)
      !received
  in
  let uniq = List.sort_uniq Aitf_filter.Flow_label.compare flows in
  checki "all distinct" (List.length flows) (List.length uniq)

let test_driver_answers_queries () =
  let sim, net, a, b, received = pair () in
  let mk _ =
    {
      Message.flow = Aitf_filter.Flow_label.host_pair a.Node.addr b.Node.addr;
      target = Message.To_victim_gateway;
      duration = 60.;
      path = [];
      hops = 0;
      requestor = a.Node.addr;
      corr = 0;
      auth = 0L;
    }
  in
  let d =
    Request_driver.create ~rate:1. ~dst:b.Node.addr ~make_request:mk net a
  in
  (* Send a verification query to the driver node. *)
  let flow = Aitf_filter.Flow_label.host_pair a.Node.addr b.Node.addr in
  ignore
    (Sim.at sim 0.5 (fun () ->
         Network.originate net b
           (Message.packet ~src:b.Node.addr ~dst:a.Node.addr
              (Message.Verification_query { flow; nonce = 7L }))));
  Sim.run ~until:2.0 sim;
  checki "answered" 1 (Request_driver.queries_answered d);
  let replies =
    List.filter
      (fun (pkt : Packet.t) ->
        match pkt.Packet.payload with
        | Message.Verification_reply { nonce = 7L; _ } -> true
        | _ -> false)
      !received
  in
  checki "reply with echoed nonce" 1 (List.length replies)

(* --- App (request/response transactions) ------------------------------------- *)

module App = Aitf_workload.App

let test_app_transaction_completes () =
  let sim, net, a, b, _ = pair () in
  let server = App.Server.create ~reply_packets:3 net b in
  let client =
    App.Client.create ~period:0.5 ~timeout:1.0 ~stop:2.9 ~server:b.Node.addr
      net a
  in
  Sim.run ~until:5.0 sim;
  checki "six transactions" 6 (App.Client.completed client);
  checki "no failures" 0 (App.Client.failed client);
  checki "server served them" 6 (App.Server.requests_served server);
  checkb "rate 1.0" true (App.Client.completion_rate client = 1.0);
  (* Latency ~ 2 * 1 ms propagation + serialisation; well under 10 ms. *)
  List.iter
    (fun l -> checkb "latency sane" true (l > 0. && l < 0.01))
    (App.Client.latencies client)

let test_app_fails_when_unreachable () =
  let sim, net, a, b, _ = pair () in
  let (_ : App.Server.t) = App.Server.create net b in
  (* Cut the link before any request. *)
  ignore (Network.disconnect_port net a ~peer_id:b.Node.id);
  let client =
    App.Client.create ~period:1.0 ~timeout:0.5 ~retries:1 ~stop:1.5
      ~server:b.Node.addr net a
  in
  Sim.run ~until:5.0 sim;
  checki "both failed" 2 (App.Client.failed client);
  checki "none completed" 0 (App.Client.completed client);
  (* 2 transactions x (1 try + 1 retry) *)
  checki "retries happened" 4 (App.Client.attempts client)

let test_app_retry_recovers () =
  let sim, net, a, b, _ = pair () in
  let (_ : App.Server.t) = App.Server.create net b in
  (* Link down for the first attempt, up again before the retry. *)
  ignore (Network.disconnect_port net a ~peer_id:b.Node.id);
  ignore
    (Sim.at sim 0.7 (fun () ->
         List.iter (fun l -> Link.set_up l true) (Network.links net)));
  let client =
    App.Client.create ~period:10. ~timeout:0.5 ~retries:2 ~stop:5.
      ~server:b.Node.addr net a
  in
  Sim.run ~until:5.0 sim;
  checki "recovered via retry" 1 (App.Client.completed client);
  checki "no failure" 0 (App.Client.failed client);
  checkb "took more than one attempt" true (App.Client.attempts client >= 2)

let test_app_partial_reply_times_out () =
  let sim, net, a, b, _ = pair () in
  let (_ : App.Server.t) = App.Server.create ~reply_packets:4 net b in
  (* Kill the reverse direction mid-reply: deliver only part of the reply.
     Easiest deterministic way: cut the link shortly after the request goes
     out. *)
  ignore
    (Sim.at sim 0.0015 (fun () ->
         ignore (Network.disconnect_port net b ~peer_id:a.Node.id)));
  let client =
    App.Client.create ~period:10. ~timeout:0.5 ~retries:0 ~stop:5.
      ~server:b.Node.addr net a
  in
  Sim.run ~until:3.0 sim;
  checki "incomplete reply fails" 1 (App.Client.failed client);
  checki "not completed" 0 (App.Client.completed client)

(* --- Shape shifter --------------------------------------------------------------- *)

module Shape_shifter = Aitf_workload.Shape_shifter

let test_shifter_rotates_identity () =
  let sim, net, a, b, received = pair () in
  let (_ : Shape_shifter.t) =
    Shape_shifter.create ~pool:100 ~shift_period:1.0 ~flow_id:1 ~rate:8e5
      ~dst:b.Node.addr ~spoof_base:(addr "50.0.0.0") net a
  in
  Sim.run ~until:3.5 sim;
  let sources =
    List.map (fun (p : Packet.t) -> p.Packet.src) !received
    |> List.sort_uniq Addr.compare
  in
  checki "four identities over 3.5s" 4 (List.length sources);
  checkb "true source constant" true
    (List.for_all
       (fun (p : Packet.t) -> Addr.equal p.Packet.true_src a.Node.addr)
       !received);
  (* Ports rotate with the shape. *)
  let ports =
    List.map (fun (p : Packet.t) -> p.Packet.sport) !received
    |> List.sort_uniq Int.compare
  in
  checki "four source ports" 4 (List.length ports)

let test_shifter_pool_recycles () =
  let sim, net, a, b, received = pair () in
  let s =
    Shape_shifter.create ~pool:2 ~shift_period:0.5 ~flow_id:1 ~rate:8e5
      ~dst:b.Node.addr ~spoof_base:(addr "50.0.0.0") net a
  in
  Sim.run ~until:3.0 sim;
  let sources =
    List.map (fun (p : Packet.t) -> p.Packet.src) !received
    |> List.sort_uniq Addr.compare
  in
  checki "only two addresses" 2 (List.length sources);
  checkb "but six shapes presented" true (Shape_shifter.shapes_used s = 6)

let test_shifter_rate_and_halt () =
  let sim, net, a, b, _ = pair () in
  let s =
    Shape_shifter.create ~shift_period:1.0 ~flow_id:1 ~rate:8e5
      ~dst:b.Node.addr ~spoof_base:(addr "50.0.0.0") net a
  in
  ignore (Sim.at sim 1.0 (fun () -> Shape_shifter.halt s));
  Sim.run ~until:3.0 sim;
  checkb "rate honored until halt" true
    (abs (Shape_shifter.sent_packets s - 100) <= 2);
  checki "bytes offered" (Shape_shifter.sent_packets s * 1000)
    (int_of_float Ledger.(offered_bytes (of_sim sim) Attack))

(* --- Manual defense --------------------------------------------------------------- *)

module Manual_defense = Aitf_workload.Manual_defense

let manual_rig () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let attacker =
    Network.add_node net ~name:"atk" ~addr:(addr "20.0.0.66") ~as_id:1 Node.Host
  in
  let gw =
    Network.add_node net ~name:"gw" ~addr:(addr "10.0.0.1") ~as_id:2
      Node.Border_router
  in
  let victim =
    Network.add_node net ~name:"victim" ~addr:(addr "10.0.0.10") ~as_id:2
      Node.Host
  in
  ignore (Network.connect net attacker gw ~bandwidth:1e9 ~delay:0.005);
  ignore (Network.connect net gw victim ~bandwidth:1e9 ~delay:0.005);
  Network.compute_routes net;
  (sim, net, attacker, gw, victim)

let test_manual_blocks_after_delay () =
  let sim, net, attacker, gw, victim = manual_rig () in
  let m =
    Manual_defense.deploy ~response_time:2.0 ~gateway:gw ~victim net
  in
  let received = ref 0 in
  victim.Node.local_deliver <-
    (let prev = victim.Node.local_deliver in
     fun node pkt ->
       incr received;
       prev node pkt);
  let (_ : Traffic.t) =
    Traffic.cbr ~start:0. ~attack:true ~flow_id:1 ~rate:8e5
      ~dst:victim.Node.addr net attacker
  in
  Sim.run ~until:1.9 sim;
  let before = !received in
  checkb "flowing before response" true (before > 150);
  checki "operator still busy" 1 (Manual_defense.pending m);
  Sim.run ~until:4.0 sim;
  checki "filter installed" 1 (Manual_defense.filters_installed m);
  checki "flow seen once" 1 (Manual_defense.flows_seen m);
  (* At most a couple of in-flight packets after the filter landed. *)
  checkb "blocked after response time" true (!received - before <= 15)

let test_manual_defeated_by_shifting () =
  let sim, net, attacker, gw, victim = manual_rig () in
  let m =
    Manual_defense.deploy ~response_time:5.0 ~gateway:gw ~victim net
  in
  let (_ : Shape_shifter.t) =
    Shape_shifter.create ~pool:100 ~shift_period:1.0 ~flow_id:1 ~rate:8e5
      ~dst:victim.Node.addr ~spoof_base:(addr "50.0.0.0") net attacker
  in
  Sim.run ~until:10.0 sim;
  (* Filters landed, but every one for a shape that has already moved on:
     they never block anything. *)
  checkb "operator installed filters" true
    (Manual_defense.filters_installed m >= 4);
  checki "none of them ever matched" 0
    (Aitf_filter.Filter_table.blocked_packets (Manual_defense.filters m))

(* --- Report -------------------------------------------------------------------- *)

module Report = Aitf_workload.Report

let test_report_tables_render () =
  let r =
    Scenarios.run_chain
      { Scenarios.default_chain with Scenarios.duration = 5. }
  in
  let net = r.Scenarios.deployed.Aitf_topo.Chain.topo.Aitf_topo.Chain.net in
  let nodes = Report.node_table net in
  checkb "one row per node" true
    (List.length (Aitf_stats.Table.rows nodes)
    = List.length (Network.nodes net));
  let links = Report.link_table ~busy_only:false net in
  checkb "one row per directed link" true
    (List.length (Aitf_stats.Table.rows links)
    = List.length (Network.links net));
  let busy = Report.link_table net in
  checkb "busy-only hides idle links" true
    (List.length (Aitf_stats.Table.rows busy)
    < List.length (Aitf_stats.Table.rows links));
  let gws =
    Report.gateway_table r.Scenarios.deployed.Aitf_topo.Chain.victim_gateways
  in
  checkb "gateway rows" true (List.length (Aitf_stats.Table.rows gws) = 3);
  (* The tables must render without raising. *)
  checkb "renders" true
    (String.length (Aitf_stats.Table.render nodes) > 0
    && String.length (Aitf_stats.Table.render links) > 0
    && String.length (Aitf_stats.Table.render gws) > 0)

(* --- Chain scenario ---------------------------------------------------------- *)

let quick_params =
  {
    Scenarios.default_chain with
    Scenarios.config =
      {
        (Config.with_timescale Config.default 0.1) with
        Config.t_tmp = 0.5;
        grace = 0.3;
      };
    duration = 20.;
    seed = 1;
  }

let test_scenario_runs_and_suppresses () =
  let r = Scenarios.run_chain quick_params in
  checkb "r in (0, 0.2)" true
    (r.Scenarios.r_measured > 0. && r.Scenarios.r_measured < 0.2);
  checkb "requests sent" true (r.Scenarios.requests_sent >= 1);
  checkb "series sampled" true
    (Aitf_stats.Series.length r.Scenarios.victim_rate > 100);
  checkb "offered positive" true (r.Scenarios.attack_offered_bytes > 0.)

let test_scenario_deterministic () =
  let a = Scenarios.run_chain quick_params in
  let b = Scenarios.run_chain quick_params in
  checkb "same seed, same result" true
    (a.Scenarios.r_measured = b.Scenarios.r_measured
    && a.Scenarios.requests_sent = b.Scenarios.requests_sent)

let test_scenario_time_to_suppress () =
  let r = Scenarios.run_chain quick_params in
  match Scenarios.time_to_suppress r ~threshold:0.05 with
  | None -> Alcotest.fail "expected suppression"
  | Some t ->
    (* Attack starts at 1 s; suppression should land within a couple of
       seconds given Td = 0.1 and sub-second protocol latency. *)
    checkb "reasonable time" true (t > 1.0 && t < 5.0)

let test_flood_scenario () =
  let p =
    {
      Scenarios.default_flood with
      Scenarios.zombies = 6;
      flood_duration = 8.;
      flood_config =
        {
          (Config.with_timescale Config.default 0.1) with
          Config.grace = 0.3;
        };
    }
  in
  let on = Scenarios.run_flood p in
  let off = Scenarios.run_flood { p with Scenarios.with_aitf = false } in
  checki "all zombies placed" 6 on.Scenarios.zombies_placed;
  checkb "every zombie filtered at its leaf (once per T cycle)" true
    (on.Scenarios.leaf_filters >= 6 && on.Scenarios.leaf_filters mod 6 = 0);
  checki "no isp filters" 0 on.Scenarios.isp_filters;
  checkb "aitf protects goodput" true
    (on.Scenarios.legit_received_bytes >= off.Scenarios.legit_received_bytes);
  checkb "attack mostly blocked" true
    (on.Scenarios.flood_attack_received_bytes
    < 0.2 *. off.Scenarios.flood_attack_received_bytes);
  checkb "baseline has no deployment" true
    (off.Scenarios.hierarchy_deployed = None)

let test_flood_more_zombies_than_hosts () =
  (* Asking for more zombies than the hierarchy can hold places what fits. *)
  let p =
    { Scenarios.default_flood with Scenarios.zombies = 1000; flood_duration = 3. }
  in
  let r = Scenarios.run_flood p in
  (* 2 non-victim ISPs x 3 nets x 3 hosts = 18 slots *)
  checki "capped" 18 r.Scenarios.zombies_placed

let test_scenario_traceback_modes () =
  (* All three traceback selections must converge to a blocked flow. *)
  List.iter
    (fun mode ->
      let r =
        Scenarios.run_chain
          { quick_params with Scenarios.traceback = mode; duration = 15. }
      in
      checkb "suppressed" true (r.Scenarios.r_measured < 0.2))
    [ `Path_in_request; `Spie; `Ppm ]

let test_scenario_legit_traffic_counted () =
  let r =
    Scenarios.run_chain { quick_params with Scenarios.legit_rate = 1e5 }
  in
  checkb "good bytes measured" true (r.Scenarios.good_received_bytes > 0.);
  checkb "good offered" true (r.Scenarios.good_offered_bytes > 0.)

let () =
  Alcotest.run "aitf_workload"
    [
      ( "traffic",
        [
          Alcotest.test_case "cbr rate" `Quick test_cbr_rate;
          Alcotest.test_case "start/stop" `Quick test_cbr_start_stop;
          Alcotest.test_case "halt" `Quick test_halt;
          Alcotest.test_case "gate" `Quick test_gate_suppression;
          Alcotest.test_case "spoofing" `Quick test_spoofing_applied;
          Alcotest.test_case "attack flag" `Quick test_attack_flag;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean_rate;
          Alcotest.test_case "label helper" `Quick test_label_helper;
          Alcotest.test_case "invalid rate" `Quick test_invalid_rate;
        ] );
      ( "request_driver",
        [
          Alcotest.test_case "rate and indices" `Quick
            test_driver_rate_and_indices;
          Alcotest.test_case "answers queries" `Quick
            test_driver_answers_queries;
        ] );
      ( "app",
        [
          Alcotest.test_case "transaction completes" `Quick
            test_app_transaction_completes;
          Alcotest.test_case "unreachable fails" `Quick
            test_app_fails_when_unreachable;
          Alcotest.test_case "retry recovers" `Quick test_app_retry_recovers;
          Alcotest.test_case "partial reply fails" `Quick
            test_app_partial_reply_times_out;
        ] );
      ( "shape_shifter",
        [
          Alcotest.test_case "rotates identity" `Quick
            test_shifter_rotates_identity;
          Alcotest.test_case "pool recycles" `Quick test_shifter_pool_recycles;
          Alcotest.test_case "rate and halt" `Quick test_shifter_rate_and_halt;
        ] );
      ( "manual_defense",
        [
          Alcotest.test_case "blocks after delay" `Quick
            test_manual_blocks_after_delay;
          Alcotest.test_case "defeated by shifting" `Quick
            test_manual_defeated_by_shifting;
        ] );
      ( "report",
        [ Alcotest.test_case "tables render" `Quick test_report_tables_render ] );
      ( "scenario",
        [
          Alcotest.test_case "runs and suppresses" `Quick
            test_scenario_runs_and_suppresses;
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "time to suppress" `Quick
            test_scenario_time_to_suppress;
          Alcotest.test_case "legit traffic" `Quick
            test_scenario_legit_traffic_counted;
          Alcotest.test_case "traceback modes" `Quick
            test_scenario_traceback_modes;
          Alcotest.test_case "flood" `Quick test_flood_scenario;
          Alcotest.test_case "flood overflow" `Quick
            test_flood_more_zombies_than_hosts;
        ] );
    ]
