(* Tests for aitf_core: messages, handshake, detection, gateway roles,
   escalation, policing, security and host agents. Protocol-level tests run
   on the Figure-1 chain topology. *)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
open Aitf_net
open Aitf_filter
open Aitf_core
open Aitf_topo

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let addr = Addr.of_string

(* --- Message -------------------------------------------------------------- *)

let test_message_packet () =
  let p =
    Message.packet ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2")
      (Message.Verification_query
         { flow = Flow_label.host_pair (addr "3.0.0.3") (addr "2.0.0.2");
           nonce = 42L;
         })
  in
  checki "size" Message.message_size p.Packet.size;
  checki "proto" Message.protocol_number p.Packet.proto;
  checkb "is control" true (Packet.is_control p)

(* --- Config --------------------------------------------------------------- *)

let test_config_defaults () =
  let c = Config.default in
  checkb "Ttmp << T" true (c.Config.t_tmp < c.Config.t_filter /. 10.);
  checkb "paper example rates" true (c.Config.r1 = 100. && c.Config.r2 = 1.);
  checkb "handshake on" true c.Config.handshake

let test_config_timescale () =
  let c = Config.with_timescale Config.default 0.1 in
  checkb "T scaled" true (abs_float (c.Config.t_filter -. 6.0) < 1e-9);
  checkb "Ttmp floored at the RTT bound" true
    (abs_float (c.Config.t_tmp -. 0.5) < 1e-9);
  checkb "handshake timeout untouched" true
    (c.Config.handshake_timeout = Config.default.Config.handshake_timeout);
  checkb "rates unscaled" true (c.Config.r1 = 100.)

(* --- Handshake ------------------------------------------------------------ *)

let flow_av = Flow_label.host_pair (addr "1.0.0.1") (addr "2.0.0.2")

let mk_handshake ?(timeout = 1.0) () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  (sim, Handshake.create sim rng ~timeout)

(* The handshake counts nothing itself: tests count its [on_result]
   outcomes and the classes [handle_reply] returns, as the gateway does. *)
let occurrences x l = List.length (List.filter (( = ) x) l)

let reply_into replies h ~flow ~nonce () =
  replies := Handshake.handle_reply h ~flow ~nonce :: !replies

let test_handshake_success () =
  let sim, h = mk_handshake () in
  let results = ref [] in
  let nonce = Handshake.start h ~flow:flow_av ~send:(fun _ -> ()) ~on_result:(fun r -> results := r :: !results) in
  ignore (Sim.at sim 0.5 (reply_into (ref []) h ~flow:flow_av ~nonce));
  Sim.run sim;
  checkb "verified" true (!results = [ true ]);
  checki "verified count" 1 (occurrences true !results);
  checki "no timeouts" 0 (occurrences false !results)

let test_handshake_timeout () =
  let sim, h = mk_handshake ~timeout:1.0 () in
  let results = ref [] in
  ignore (Handshake.start h ~flow:flow_av ~send:(fun _ -> ()) ~on_result:(fun r -> results := r :: !results));
  Sim.run sim;
  checkb "failed" true (!results = [ false ]);
  checki "timed out" 1 (occurrences false !results)

let test_handshake_wrong_nonce () =
  let sim, h = mk_handshake () in
  let result = ref None and replies = ref [] in
  let nonce = Handshake.start h ~flow:flow_av ~send:(fun _ -> ()) ~on_result:(fun r -> result := Some r) in
  ignore
    (Sim.at sim 0.5
       (reply_into replies h ~flow:flow_av ~nonce:(Int64.add nonce 1L)));
  Sim.run sim;
  checkb "timeout wins" true (!result = Some false);
  checki "bogus counted" 1 (occurrences Handshake.Bogus !replies)

let test_handshake_wrong_flow () =
  let sim, h = mk_handshake () in
  let result = ref None and replies = ref [] in
  let nonce = Handshake.start h ~flow:flow_av ~send:(fun _ -> ()) ~on_result:(fun r -> result := Some r) in
  let other = Flow_label.host_pair (addr "9.0.0.9") (addr "2.0.0.2") in
  ignore (Sim.at sim 0.5 (reply_into replies h ~flow:other ~nonce));
  Sim.run sim;
  checkb "rejected" true (!result = Some false);
  checki "bogus counted" 1 (occurrences Handshake.Bogus !replies)

let test_handshake_reply_after_timeout_ignored () =
  let sim, h = mk_handshake ~timeout:0.5 () in
  let results = ref [] in
  let nonce =
    Handshake.start h ~flow:flow_av ~send:(fun _ -> ()) ~on_result:(fun r -> results := r :: !results)
  in
  ignore (Sim.at sim 1.0 (reply_into (ref []) h ~flow:flow_av ~nonce));
  Sim.run sim;
  check (Alcotest.list Alcotest.bool) "only the timeout fired" [ false ] !results

let test_handshake_concurrent_independent () =
  let sim, h = mk_handshake () in
  let r1 = ref None and r2 = ref None in
  let n1 = Handshake.start h ~flow:flow_av ~send:(fun _ -> ()) ~on_result:(fun r -> r1 := Some r) in
  let n2 = Handshake.start h ~flow:flow_av ~send:(fun _ -> ()) ~on_result:(fun r -> r2 := Some r) in
  checkb "nonces differ" true (n1 <> n2);
  checki "both pending" 2 (Handshake.pending h);
  ignore (Sim.at sim 0.2 (reply_into (ref []) h ~flow:flow_av ~nonce:n2));
  Sim.run sim;
  checkb "second verified" true (!r2 = Some true);
  checkb "first timed out" true (!r1 = Some false)

(* --- Detection ------------------------------------------------------------ *)

let attack_packet ?(src = "1.0.0.1") () =
  Packet.make ~src:(addr src) ~dst:(addr "2.0.0.2") ~size:1000
    (Packet.Data { flow_id = 0; attack = true })

let test_detection_td_delay () =
  let sim = Sim.create () in
  let detections = ref [] in
  let d =
    Detection.create sim ~td:0.5 ~min_report_gap:1.0
      ~on_detect:(fun _ _ -> detections := Sim.now sim :: !detections)
  in
  ignore (Sim.at sim 1.0 (fun () -> Detection.observe d (attack_packet ())));
  Sim.run sim;
  check (Alcotest.list (Alcotest.float 1e-9)) "fired at t+Td" [ 1.5 ] !detections

let test_detection_no_duplicate_while_pending () =
  let sim = Sim.create () in
  let count = ref 0 in
  let d =
    Detection.create sim ~td:0.5 ~min_report_gap:1.0 ~on_detect:(fun _ _ -> incr count)
  in
  for i = 0 to 4 do
    ignore
      (Sim.at sim (1.0 +. (0.05 *. float_of_int i)) (fun () ->
           Detection.observe d (attack_packet ())))
  done;
  Sim.run sim;
  checki "single detection" 1 !count

let test_detection_instant_redetection () =
  let sim = Sim.create () in
  let times = ref [] in
  let d =
    Detection.create sim ~td:0.5 ~min_report_gap:1.0
      ~on_detect:(fun _ _ -> times := Sim.now sim :: !times)
  in
  ignore (Sim.at sim 1.0 (fun () -> Detection.observe d (attack_packet ())));
  (* reappears at t=10: should fire immediately, not after Td *)
  ignore (Sim.at sim 10.0 (fun () -> Detection.observe d (attack_packet ())));
  Sim.run sim;
  check (Alcotest.list (Alcotest.float 1e-9)) "instant redetect" [ 1.5; 10.0 ]
    (List.rev !times);
  checki "two detections" 2 (Detection.detections d)

let test_detection_gap_damping () =
  let sim = Sim.create () in
  let count = ref 0 in
  let d =
    Detection.create sim ~td:0.0 ~min_report_gap:2.0 ~on_detect:(fun _ _ -> incr count)
  in
  (* Td = 0: first report fires at once; then reports every >= 2 s. *)
  for i = 0 to 39 do
    ignore
      (Sim.at sim (0.1 *. float_of_int (i + 1)) (fun () ->
           Detection.observe d (attack_packet ())))
  done;
  Sim.run sim;
  (* 4 s of packets with a 2 s damper: roughly 2 reports, certainly < 5. *)
  checkb "damped" true (!count >= 1 && !count < 5)

let test_detection_per_flow_state () =
  let sim = Sim.create () in
  let flows = ref [] in
  let d =
    Detection.create sim ~td:0.1 ~min_report_gap:1.0
      ~on_detect:(fun l _ -> flows := l :: !flows)
  in
  ignore (Sim.at sim 1.0 (fun () -> Detection.observe d (attack_packet ~src:"1.0.0.1" ())));
  ignore (Sim.at sim 1.0 (fun () -> Detection.observe d (attack_packet ~src:"1.0.0.2" ())));
  Sim.run sim;
  checki "two flows detected" 2 (List.length !flows);
  checki "flows seen" 2 (Detection.flows_seen d);
  checkb "known" true
    (Detection.known d (Flow_label.host_pair (addr "1.0.0.1") (addr "2.0.0.2")))

(* --- Protocol on the chain -------------------------------------------------- *)

(* Shrunk timescale so tests run fast: T = 6 s. Ttmp and grace are kept
   above the handshake round trip (~0.2 s on the default chain) because the
   paper requires Ttmp to cover traceback + handshake. *)
let fast_config =
  {
    (Config.with_timescale Config.default 0.1) with
    Config.t_tmp = 0.5;
    grace = 0.3;
    handshake_timeout = 0.5;
    min_report_gap = 0.2;
  }

type rig = {
  sim : Sim.t;
  topo : Chain.t;
  d : Chain.deployed;
  attack : Aitf_workload.Traffic.t;
}

let make_rig ?(config = fast_config) ?(attacker_strategy = Policy.Ignores)
    ?(n_non_coop = 0) ?(path_source = Host_agent.From_route_record)
    ?(victim_td = 0.05) ?(depth = 3) ?(attack_rate = 4e5) ?extra_setup () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let topo = Chain.build sim { Chain.default_spec with depth } in
  (match extra_setup with Some f -> f topo | None -> ());
  let d =
    Chain.deploy ~attacker_strategy
      ~attacker_gw_policies:(Chain.non_cooperating n_non_coop) ~victim_td
      ~path_source ~config ~rng topo
  in
  let attack =
    Aitf_workload.Traffic.cbr
      ~gate:(Host_agent.Attacker.gate d.Chain.attacker_agent)
      ~start:0.5 ~attack:true ~flow_id:1 ~rate:attack_rate
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in
  { sim; topo; d; attack }

let victim_gw r = List.hd r.d.Chain.victim_gateways
let attacker_gw r i = List.nth r.d.Chain.attacker_gateways i

(* Bytes the ledger saw delivered; every data packet of a chain rig is
   addressed to its victim. *)
let delivered sim ~attack = Aitf_workload.Runner.delivered sim None ~attack

(* Run to [until]; true iff no attack byte reached the victim in the last
   second: the ledger's attack bytes read at [until - 1] and at [until]
   are equal. *)
let run_quiet_last_second r ~until =
  Sim.run ~until:(until -. 1.) r.sim;
  let before = delivered r.sim ~attack:true in
  Sim.run ~until r.sim;
  delivered r.sim ~attack:true = before

let test_protocol_basic_block () =
  let r = make_rig () in
  let quiet = run_quiet_last_second r ~until:3.0 in
  (* Victim detected, requested; victim gw temp-filtered and propagated;
     attacker gw installed the long filter. *)
  checkb "victim sent request" true
    (Host_agent.Victim.requests_sent r.d.Chain.victim_agent >= 1);
  checkb "victim gw handled request" true
    (Gateway.count (victim_gw r) Gateway.Req_victim_role >= 1);
  checki "propagated exactly once" 1
    (Gateway.count (victim_gw r) Gateway.Req_propagated);
  checki "attacker gw long filter" 1
    (Gateway.count (attacker_gw r 0) Gateway.Filter_long);
  checki "handshake ok" 1
    (Gateway.count (attacker_gw r 0) Gateway.Handshake_ok);
  (* The flow is actually dead at the victim: no packets in the last second. *)
  checkb "flow suppressed" true quiet

let test_protocol_temp_filter_expires () =
  let r = make_rig () in
  Sim.run ~until:3.0 r.sim;
  (* Ttmp long past: the victim gateway's hardware table must be empty while
     the attacker gateway still holds its T filter. *)
  checki "victim gw empty" 0 (Filter_table.occupancy (Gateway.filters (victim_gw r)));
  checki "victim gw peak was 1" 1
    (Filter_table.peak_occupancy (Gateway.filters (victim_gw r)));
  checki "attacker gw holds" 1
    (Filter_table.occupancy (Gateway.filters (attacker_gw r 0)))

let test_protocol_attacker_complies () =
  let r = make_rig ~attacker_strategy:Policy.Complies () in
  Sim.run ~until:3.0 r.sim;
  checkb "attacker got request" true
    (Host_agent.Attacker.(count r.d.Chain.attacker_agent Request_received) >= 1);
  checkb "flow stopped at source" true
    (Host_agent.Attacker.(count r.d.Chain.attacker_agent Flow_stopped) >= 1);
  checkb "host filter installed" true
    (Filter_table.occupancy (Host_agent.Attacker.filters r.d.Chain.attacker_agent)
    = 1);
  checkb "gated at source" true
    Aitf_obs.Ledger.(packets (of_sim r.sim) Attack Gated > 0)

let test_protocol_escalation_unresponsive_gw () =
  let r =
    make_rig ~n_non_coop:1
      ~attacker_strategy:(Policy.On_off { off_time = 0.15 }) ()
  in
  Sim.run ~until:3.0 r.sim;
  checkb "B_gw1 ignored" true
    (Gateway.count (attacker_gw r 0) Gateway.Ignored_unresponsive >= 1);
  checkb "victim gw escalated" true
    (Gateway.count (victim_gw r) Gateway.Escalated >= 1);
  (* Round 2: the second gateway ends up filtering. *)
  checkb "B_gw2 filters" true
    (Gateway.count (attacker_gw r 1) Gateway.Filter_long >= 1);
  let g_gw2 = List.nth r.d.Chain.victim_gateways 1 in
  checkb "G_gw2 played victim gw" true
    (Gateway.count g_gw2 Gateway.Req_victim_role >= 1)

let test_protocol_terminal_when_all_unresponsive () =
  let r = make_rig ~n_non_coop:3 ~attacker_strategy:Policy.Ignores () in
  let quiet = run_quiet_last_second r ~until:6.0 in
  let top = List.nth r.d.Chain.victim_gateways 2 in
  (* The top victim-side gateway ends up holding a long filter itself. *)
  checkb "terminal filtering at G_gw3" true
    (Gateway.count top Gateway.Filter_long_self >= 1
    || Gateway.count top Gateway.Terminal_filter >= 1);
  checkb "flow still suppressed" true quiet

let test_protocol_disconnection () =
  let config = { fast_config with Config.disconnect = true } in
  let r = make_rig ~config ~attacker_strategy:Policy.Ignores () in
  Sim.run ~until:4.0 r.sim;
  (* The ignoring attacker keeps hitting B_gw1's filter past the grace
     period and gets blocklisted. *)
  checki "disconnected" 1
    (Gateway.count (attacker_gw r 0) Gateway.Disconnect_host);
  checkb "blocklisted" true
    (Gateway.blocklisted (attacker_gw r 0) r.topo.Chain.attacker.Node.addr)

let test_protocol_bystander_survives_disconnection () =
  let config = { fast_config with Config.disconnect = true } in
  let got_bystander = ref 0 in
  let r = make_rig ~config ~attacker_strategy:Policy.Ignores () in
  r.topo.Chain.victim.Node.local_deliver <-
    (let prev = r.topo.Chain.victim.Node.local_deliver in
     fun n (pkt : Packet.t) ->
       (match pkt.Packet.payload with
       | Packet.Data { flow_id = 9; _ } -> incr got_bystander
       | _ -> ());
       prev n pkt);
  let (_ : Aitf_workload.Traffic.t) =
    Aitf_workload.Traffic.cbr ~start:0. ~flow_id:9 ~rate:1e5
      ~dst:r.topo.Chain.victim.Node.addr r.topo.Chain.net
      r.topo.Chain.bystander
  in
  Sim.run ~until:4.0 r.sim;
  checkb "bystander traffic still flows" true (!got_bystander > 20)

let test_protocol_handshake_blocks_forgery () =
  (* Forged request from an off-path node M asking B_gw1 to block the
     legitimate B_host -> G_host flow. With the handshake on, G_host never
     confirms, so the filter must NOT be installed. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:3 in
  let topo = Chain.build sim Chain.default_spec in
  (* M: another host inside B_net, so its request even passes cone checks. *)
  let m =
    Network.add_node topo.Chain.net ~name:"M" ~addr:(addr "20.0.0.99") ~as_id:101
      Node.Host
  in
  ignore
    (Network.connect topo.Chain.net (List.hd topo.Chain.attacker_gws) m
       ~bandwidth:1e7 ~delay:0.01);
  Network.compute_routes topo.Chain.net;
  let d =
    Chain.deploy ~attacker_strategy:Policy.Complies ~config:fast_config ~rng
      topo
  in
  (* Legitimate (non-attack) flow B_host -> G_host. *)
  let (_ : Aitf_workload.Traffic.t) =
    Aitf_workload.Traffic.cbr ~start:0. ~flow_id:3 ~rate:1e5
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in
  let flow =
    Flow_label.host_pair topo.Chain.attacker.Node.addr
      topo.Chain.victim.Node.addr
  in
  let forged =
    {
      Message.flow;
      target = Message.To_attacker_gateway;
      duration = 6.0;
      path = [ (List.hd topo.Chain.attacker_gws).Node.addr ];
      hops = 0;
      requestor = m.Node.addr;
      corr = 0;
      auth = 0L;
    }
  in
  ignore
    (Sim.at sim 1.0 (fun () ->
         Network.originate topo.Chain.net m
           (Message.packet ~src:m.Node.addr
              ~dst:(List.hd topo.Chain.attacker_gws).Node.addr
              (Message.Filtering_request forged))));
  Sim.run ~until:4.0 sim;
  let bgw1 = List.hd d.Chain.attacker_gateways in
  checki "verification failed" 1 (Gateway.count bgw1 Gateway.Handshake_fail);
  checki "no filter installed" 0 (Filter_table.occupancy (Gateway.filters bgw1));
  checkb "legit flow unharmed" true
    (delivered sim ~attack:false > 30_000.)

let test_protocol_forgery_succeeds_without_handshake () =
  (* Same forgery with the handshake disabled: the filter IS installed and
     the legitimate flow dies — demonstrating why the handshake exists. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:3 in
  let topo = Chain.build sim Chain.default_spec in
  let m =
    Network.add_node topo.Chain.net ~name:"M" ~addr:(addr "20.0.0.99") ~as_id:101
      Node.Host
  in
  ignore
    (Network.connect topo.Chain.net (List.hd topo.Chain.attacker_gws) m
       ~bandwidth:1e7 ~delay:0.01);
  Network.compute_routes topo.Chain.net;
  let config = { fast_config with Config.handshake = false } in
  let d = Chain.deploy ~attacker_strategy:Policy.Complies ~config ~rng topo in
  let (_ : Aitf_workload.Traffic.t) =
    Aitf_workload.Traffic.cbr ~start:0. ~flow_id:3 ~rate:1e5
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in
  let flow =
    Flow_label.host_pair topo.Chain.attacker.Node.addr
      topo.Chain.victim.Node.addr
  in
  ignore
    (Sim.at sim 1.0 (fun () ->
         Network.originate topo.Chain.net m
           (Message.packet ~src:m.Node.addr
              ~dst:(List.hd topo.Chain.attacker_gws).Node.addr
              (Message.Filtering_request
                 {
                   Message.flow;
                   target = Message.To_attacker_gateway;
                   duration = 6.0;
                   path = [ (List.hd topo.Chain.attacker_gws).Node.addr ];
                   hops = 0;
                   requestor = m.Node.addr;
                   corr = 0;
                   auth = 0L;
                 }))));
  Sim.run ~until:4.0 sim;
  let bgw1 = List.hd d.Chain.attacker_gateways in
  checki "filter installed" 1 (Filter_table.occupancy (Gateway.filters bgw1));
  (* ~1 s of traffic got through before the forgery landed; then silence. *)
  let received = delivered sim ~attack:false in
  checkb "legit flow mostly killed" true (received < 20_000.)

let test_protocol_policing_r1 () =
  (* A victim self-polices at R1; the gateway also polices. Set R1 = 2/s
     with burst 2 and let the victim detect 10 distinct flows at once. *)
  let config = { fast_config with Config.r1 = 2.0; r1_burst = 2.0 } in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:9 in
  let topo = Chain.build sim Chain.default_spec in
  let d = Chain.deploy ~victim_td:0.01 ~config ~rng topo in
  (* 10 attack flows with distinct spoofed sources from the attacker. *)
  for i = 0 to 9 do
    ignore
      (Aitf_workload.Traffic.cbr
         ~spoof:(fun () -> Some (Addr.add (addr "20.0.0.100") i))
         ~start:0.5 ~attack:true ~flow_id:(100 + i) ~rate:2e5
         ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker)
  done;
  Sim.run ~until:1.2 sim;
  let v = d.Chain.victim_agent in
  let sent = Host_agent.Victim.requests_sent v in
  let suppressed = Host_agent.Victim.(count v Request_suppressed) in
  checkb "self-policed" true (suppressed > 0);
  (* burst 2 + ~0.7 s at 2/s -> at most 4 sends *)
  checkb "rate respected" true (sent <= 4);
  checki "all ten flows detected eventually" 10
    (Host_agent.Victim.attack_flows_seen v)

let test_protocol_gateway_polices_remote_requests () =
  (* Requests from a remote gateway above the configured remote rate are
     dropped indiscriminately. *)
  let config =
    { fast_config with Config.remote_rate = 2.0; remote_burst = 2.0 }
  in
  let r = make_rig ~config () in
  let bgw1 = attacker_gw r 0 in
  (* Fire 10 distinct forged-looking requests from G_gw1's address via the
     driver below; easier: call the driver from the victim gateway node. *)
  let vgw_node = List.hd r.topo.Chain.victim_gws in
  let mk i =
    {
      Message.flow =
        Flow_label.host_pair (Addr.add (addr "20.0.0.200") i)
          r.topo.Chain.victim.Node.addr;
      target = Message.To_attacker_gateway;
      duration = 6.0;
      path = [ (List.hd r.topo.Chain.attacker_gws).Node.addr ];
      hops = 0;
      requestor = vgw_node.Node.addr;
      corr = 0;
      auth = 0L;
    }
  in
  ignore
    (Sim.at r.sim 0.1 (fun () ->
         for i = 0 to 9 do
           Network.originate r.topo.Chain.net vgw_node
             (Message.packet ~src:vgw_node.Node.addr
                ~dst:(List.hd r.topo.Chain.attacker_gws).Node.addr
                (Message.Filtering_request (mk i)))
         done));
  Sim.run ~until:0.4 r.sim;
  checkb "policed" true (Gateway.count bgw1 Gateway.Req_policed >= 8)

let test_protocol_invalid_requestor_rejected () =
  (* A request whose requestor is outside the gateway's customer cone must
     be dropped in the victim-gateway role. *)
  let r = make_rig () in
  let outsider = r.topo.Chain.attacker in
  let vgw_node = List.hd r.topo.Chain.victim_gws in
  ignore
    (Sim.at r.sim 0.1 (fun () ->
         Network.originate r.topo.Chain.net outsider
           (Message.packet ~src:outsider.Node.addr ~dst:vgw_node.Node.addr
              (Message.Filtering_request
                 {
                   Message.flow =
                     Flow_label.host_pair (addr "9.9.9.9")
                       r.topo.Chain.victim.Node.addr;
                   target = Message.To_victim_gateway;
                   duration = 6.0;
                   path = [];
                   hops = 0;
                   requestor = outsider.Node.addr;
                   corr = 0;
                   auth = 0L;
                 }))));
  Sim.run ~until:0.4 r.sim;
  checki "rejected as invalid" 1
    (Gateway.count (victim_gw r) Gateway.Req_invalid)

let test_protocol_not_on_path_rejected () =
  (* An attacker-gateway request whose path does not include the gateway
     and whose flow source is foreign must be refused. *)
  let r = make_rig () in
  let bgw1 = attacker_gw r 0 in
  let vgw_node = List.hd r.topo.Chain.victim_gws in
  ignore
    (Sim.at r.sim 0.1 (fun () ->
         Network.originate r.topo.Chain.net vgw_node
           (Message.packet ~src:vgw_node.Node.addr
              ~dst:(List.hd r.topo.Chain.attacker_gws).Node.addr
              (Message.Filtering_request
                 {
                   Message.flow =
                     Flow_label.host_pair (addr "99.0.0.1")
                       r.topo.Chain.victim.Node.addr;
                   target = Message.To_attacker_gateway;
                   duration = 6.0;
                   path = [ addr "88.0.0.1" ];
                   hops = 0;
                   requestor = vgw_node.Node.addr;
                   corr = 0;
                   auth = 0L;
                 }))));
  Sim.run ~until:0.4 r.sim;
  checki "refused" 1 (Gateway.count bgw1 Gateway.Req_not_on_path)

let test_protocol_duplicate_requests_coalesce () =
  let r = make_rig () in
  Sim.run ~until:3.0 r.sim;
  (* The victim keeps leaking packets during the first Td+Tr window and
     min_report_gap is small, so several requests go out; the gateway must
     treat the repeats as duplicates, not open new rounds. *)
  let dup = Gateway.count (victim_gw r) Gateway.Req_duplicate in
  let prop = Gateway.count (victim_gw r) Gateway.Req_propagated in
  checkb "at most one propagation per round" true (prop <= 2);
  checkb "repeats counted as duplicates" true
    (dup >= Host_agent.Victim.requests_sent r.d.Chain.victim_agent - prop)

let test_protocol_client_policer_r2 () =
  (* The attacker's gateway may only bother its client at R2: with R2 tiny
     and repeated fresh requests for distinct flows from the same client,
     propagations to the client are capped. *)
  let config = { fast_config with Config.r2 = 1.0; r2_burst = 1.0 } in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:5 in
  let topo = Chain.build sim Chain.default_spec in
  let d = Chain.deploy ~victim_td:0.01 ~config ~rng topo in
  (* 5 distinct attack flows, all genuinely from B_host (distinct dst
     protos make distinct labels? different dst only possible toward other
     victims; use spoofed distinct sources from B_host instead -> the
     client policer keys on the label's src, so spoofs dodge it. Instead:
     same src, distinct protocols are not modelled by Traffic; so approximate
     with 5 spoofed sources inside B_net sharing one "client" is not
     possible. Use 5 real flows from B_host to 5 victim-side targets is not
     available either (one victim host). Drive the gateway directly. *)
  let bgw1 = List.hd d.Chain.attacker_gateways in
  let vgw_node = List.hd topo.Chain.victim_gws in
  Gateway.set_contract bgw1 ~peer:vgw_node.Node.addr ~rate:1000. ~burst:1000.;
  let mk i =
    {
      Message.flow =
        {
          (Flow_label.host_pair topo.Chain.attacker.Node.addr
             topo.Chain.victim.Node.addr)
          with
          Flow_label.proto = Some i;
        };
      target = Message.To_attacker_gateway;
      duration = 6.0;
      path = [ (List.hd topo.Chain.attacker_gws).Node.addr ];
      hops = 0;
      requestor = vgw_node.Node.addr;
      corr = 0;
      auth = 0L;
    }
  in
  let (_ : Aitf_workload.Request_driver.t) =
    Aitf_workload.Request_driver.create ~start:0.1 ~stop:0.7 ~rate:10.
      ~dst:(List.hd topo.Chain.attacker_gws).Node.addr ~make_request:mk
      topo.Chain.net vgw_node
  in
  (* The victim must confirm handshakes for these synthetic flows. *)
  let victim_node = topo.Chain.victim in
  let prev = victim_node.Node.local_deliver in
  victim_node.Node.local_deliver <-
    (fun n (pkt : Packet.t) ->
      match pkt.Packet.payload with
      | Message.Verification_query { flow; nonce } ->
        Network.originate topo.Chain.net victim_node
          (Message.packet ~src:victim_node.Node.addr ~dst:pkt.Packet.src
             (Message.Verification_reply { flow; nonce }))
      | _ -> prev n pkt);
  Sim.run ~until:3.0 sim;
  let c = Gateway.count bgw1 in
  checkb "filters installed for all" true (c Gateway.Filter_long >= 5);
  checkb "client spared" true (c Gateway.Req_policed_client >= 3);
  checkb "client contacted at most burst+rate*time" true
    (c Gateway.Req_to_attacker <= 2)

let test_protocol_filter_capacity_exhaustion () =
  (* Victim gateway with a single filter slot: the second simultaneous flow
     cannot get a temporary filter; the counter must record it and the
     propagation still happen. *)
  let r =
    make_rig
      ~extra_setup:(fun _ -> ())
      ()
  in
  ignore r;
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11 in
  let topo = Chain.build sim Chain.default_spec in
  let d =
    Chain.deploy ~victim_td:0.01 ~victim_filter_capacity:1 ~config:fast_config
      ~rng topo
  in
  for i = 0 to 2 do
    ignore
      (Aitf_workload.Traffic.cbr
         ~spoof:(fun () -> Some (Addr.add (addr "20.0.0.150") i))
         ~start:0.2 ~attack:true ~flow_id:(200 + i) ~rate:2e5
         ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker)
  done;
  Sim.run ~until:1.0 sim;
  let vgw = List.hd d.Chain.victim_gateways in
  checkb "capacity hit recorded" true
    (Gateway.count vgw Gateway.Filter_full >= 1);
  checkb "still propagated all" true
    (Gateway.count vgw Gateway.Req_propagated >= 3)

let test_protocol_spie_traceback_mode () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:13 in
  let topo = Chain.build sim Chain.default_spec in
  let spie = Aitf_traceback.Spie.deploy topo.Chain.net in
  let config = { fast_config with Config.traceback = Config.Spie_query spie } in
  let d =
    Chain.deploy ~victim_td:0.05 ~path_source:Host_agent.Gateway_traceback
      ~config ~rng topo
  in
  let (_ : Aitf_workload.Traffic.t) =
    Aitf_workload.Traffic.cbr ~start:0.5 ~attack:true ~flow_id:1 ~rate:4e5
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in
  Sim.run ~until:3.0 sim;
  let vgw = List.hd d.Chain.victim_gateways in
  let bgw1 = List.hd d.Chain.attacker_gateways in
  checkb "traceback ran" true
    (Gateway.count vgw Gateway.Traceback_done >= 1);
  checkb "attacker gw filtered" true
    (Gateway.count bgw1 Gateway.Filter_long >= 1)

let test_protocol_ppm_path_source () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:17 in
  (* Depth 1: two border routers total, so PPM converges in a handful of
     marked packets. *)
  let topo = Chain.build sim { Chain.default_spec with depth = 1 } in
  let mark_rng = Rng.create ~seed:23 in
  List.iter
    (fun gw -> Aitf_traceback.Ppm.install ~p:0.3 ~rng:mark_rng gw)
    (topo.Chain.victim_gws @ topo.Chain.attacker_gws);
  let collector = Aitf_traceback.Ppm.Collector.create () in
  let d =
    Chain.deploy ~victim_td:0.05 ~path_source:(Host_agent.From_ppm collector)
      ~config:fast_config ~rng topo
  in
  let (_ : Aitf_workload.Traffic.t) =
    Aitf_workload.Traffic.cbr ~start:0.5 ~attack:true ~flow_id:1 ~rate:8e5
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in
  Sim.run ~until:4.0 sim;
  let bgw1 = List.hd d.Chain.attacker_gateways in
  checkb "request eventually sent with ppm path" true
    (Host_agent.Victim.requests_sent d.Chain.victim_agent >= 1);
  checkb "attacker gw filtered" true
    (Gateway.count bgw1 Gateway.Filter_long >= 1)

let test_protocol_victim_answers_queries () =
  let r = make_rig () in
  Sim.run ~until:3.0 r.sim;
  checkb "victim answered handshake" true
    (Host_agent.Victim.(count r.d.Chain.victim_agent Victim_confirmed) >= 1)

let test_protocol_onoff_detected_by_shadow () =
  (* Attacker complies briefly then resumes: the shadow cache must catch the
     reappearance without a fresh victim request being required. *)
  let r =
    make_rig ~n_non_coop:1
      ~attacker_strategy:(Policy.On_off { off_time = 0.15 }) ()
  in
  Sim.run ~until:3.0 r.sim;
  checkb "escalated via shadow" true
    (Gateway.count (victim_gw r) Gateway.Escalated >= 1)

(* --- Wire codec ------------------------------------------------------------- *)

let sample_request =
  {
    Message.flow =
      Flow_label.v ~proto:6 ~dport:80
        (Flow_label.Net (Addr.prefix_of_string "20.0.0.0/24"))
        (Flow_label.Host (addr "10.0.0.10"));
    target = Message.To_attacker_gateway;
    duration = 60.0;
    path = [ addr "20.0.0.1"; addr "20.1.0.1" ];
    hops = 1;
    requestor = addr "10.0.0.1";
    corr = 7;
    auth = 0L;
  }

let roundtrip payload =
  match Wire.encode payload with
  | Error e -> Alcotest.fail e
  | Ok bytes -> (
    match Wire.decode bytes with
    | Ok p -> (bytes, p)
    | Error e -> Alcotest.failf "decode: %a" Wire.pp_error e)

let test_wire_roundtrip_request () =
  let bytes, p = roundtrip (Message.Filtering_request sample_request) in
  (match p with
  | Message.Filtering_request r ->
    checkb "flow" true (Flow_label.equal r.Message.flow sample_request.Message.flow);
    checkb "target" true (r.Message.target = Message.To_attacker_gateway);
    checkb "duration" true (r.Message.duration = 60.0);
    checki "hops" 1 r.Message.hops;
    checkb "path" true
      (List.for_all2 Addr.equal r.Message.path sample_request.Message.path);
    checkb "requestor" true (Addr.equal r.Message.requestor (addr "10.0.0.1"))
  | _ -> Alcotest.fail "wrong constructor");
  checkb "size prediction" true
    (Wire.encoded_size (Message.Filtering_request sample_request)
    = Some (Bytes.length bytes))

let test_wire_roundtrip_handshake () =
  let flow = Flow_label.host_pair (addr "1.2.3.4") (addr "5.6.7.8") in
  let _, q = roundtrip (Message.Verification_query { flow; nonce = 0x1122334455667788L }) in
  (match q with
  | Message.Verification_query { flow = f; nonce } ->
    checkb "flow" true (Flow_label.equal f flow);
    checkb "nonce" true (nonce = 0x1122334455667788L)
  | _ -> Alcotest.fail "wrong constructor");
  let _, r = roundtrip (Message.Verification_reply { flow; nonce = Int64.minus_one }) in
  match r with
  | Message.Verification_reply { nonce; _ } ->
    checkb "negative nonce survives" true (nonce = Int64.minus_one)
  | _ -> Alcotest.fail "wrong constructor"

let test_wire_rejects_garbage () =
  let ok_bytes =
    match Wire.encode (Message.Filtering_request sample_request) with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  (* Truncations at every length must error, never raise. *)
  for len = 0 to Bytes.length ok_bytes - 1 do
    match Wire.decode (Bytes.sub ok_bytes 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d decoded" len
  done;
  (* Bad version / type / selector tags. *)
  let flip pos v =
    let b = Bytes.copy ok_bytes in
    Bytes.set_uint8 b pos v;
    Wire.decode b
  in
  (match flip 0 9 with
  | Error (Wire.Bad_version 9) -> ()
  | _ -> Alcotest.fail "expected bad version");
  (match flip 1 7 with
  | Error (Wire.Bad_tag ("message-type", 7)) -> ()
  | _ -> Alcotest.fail "expected bad type");
  match flip 2 5 with
  | Error (Wire.Bad_tag ("selector", 5)) -> ()
  | _ -> Alcotest.fail "expected bad selector"

let test_wire_rejects_non_aitf () =
  checkb "data payload refused" true
    (match Wire.encode (Packet.Data { flow_id = 0; attack = false }) with
    | Error _ -> true
    | Ok _ -> false)

let wire_label_gen =
  let open QCheck.Gen in
  let sel =
    frequency
      [
        (1, return Flow_label.Any);
        (3, map (fun i -> Flow_label.Host (Int32.of_int i)) (int_bound 0xFFFF));
        ( 2,
          map2
            (fun i len -> Flow_label.Net (Addr.prefix (Int32.of_int i) len))
            (int_bound 0xFFFF) (int_bound 32) );
      ]
  in
  let qual hi = opt (int_bound hi) in
  map2
    (fun (s, d) (p, (sp, dp)) ->
      { Flow_label.src = s; dst = d; proto = p; sport = sp; dport = dp })
    (pair sel sel)
    (pair (qual 255) (pair (qual 65535) (qual 65535)))

let wire_roundtrip_property =
  let gen =
    QCheck.Gen.(
      map3
        (fun flow (target, hops) (path, (requestor, duration)) ->
          {
            Message.flow;
            target =
              (match target mod 3 with
              | 0 -> Message.To_victim_gateway
              | 1 -> Message.To_attacker_gateway
              | _ -> Message.To_attacker);
            duration = float_of_int duration;
            path = List.map Int32.of_int path;
            hops = hops mod 256;
            requestor = Int32.of_int requestor;
            corr = requestor;
            auth = Int64.of_int requestor;
          })
        wire_label_gen
        (pair small_nat small_nat)
        (pair (list_size (int_bound 10) (int_bound 0xFFFFF))
           (pair (int_bound 0xFFFFF) (int_bound 10_000))))
  in
  QCheck.Test.make ~name:"wire roundtrip for random requests" ~count:300
    (QCheck.make gen)
    (fun req ->
      match Wire.encode (Message.Filtering_request req) with
      | Error _ -> false
      | Ok bytes -> (
        match Wire.decode bytes with
        | Ok (Message.Filtering_request r) ->
          Flow_label.equal r.Message.flow req.Message.flow
          && r.Message.target = req.Message.target
          && r.Message.duration = req.Message.duration
          && r.Message.hops = req.Message.hops
          && Addr.equal r.Message.requestor req.Message.requestor
          && List.length r.Message.path = List.length req.Message.path
          && List.for_all2 Addr.equal r.Message.path req.Message.path
        | _ -> false))

let wire_decode_never_raises =
  QCheck.Test.make ~name:"decode is total on arbitrary bytes" ~count:1000
    QCheck.(string_of_size (QCheck.Gen.int_bound 80))
    (fun s ->
      match Wire.decode (Bytes.of_string s) with
      | Ok _ | Error _ -> true)

(* --- Ingress/egress filtering ---------------------------------------------- *)

let ingress_rig () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let inside =
    Network.add_node net ~name:"inside" ~addr:(addr "20.0.0.5") ~as_id:1
      Node.Host
  in
  let gw =
    Network.add_node net ~name:"gw" ~addr:(addr "20.0.0.1") ~as_id:1
      Node.Border_router
  in
  let outside =
    Network.add_node net ~name:"outside" ~addr:(addr "30.0.0.5") ~as_id:2
      Node.Host
  in
  ignore (Network.connect net inside gw ~bandwidth:1e9 ~delay:0.001);
  ignore (Network.connect net gw outside ~bandwidth:1e9 ~delay:0.001);
  Network.compute_routes net;
  let guard =
    Ingress.install net gw ~cone:[ Addr.prefix_of_string "20.0.0.0/24" ]
  in
  (sim, net, inside, gw, outside, guard)

let send_via net src ?spoof dst =
  Network.originate net src
    (Packet.make ?spoofed_src:spoof ~src:src.Node.addr ~dst:dst.Node.addr
       ~size:100
       (Packet.Data { flow_id = 0; attack = false }))

let test_ingress_egress_spoof_dropped () =
  let sim, net, inside, gw, outside, guard = ingress_rig () in
  let got = ref 0 in
  outside.Node.local_deliver <- (fun _ _ -> incr got);
  send_via net inside ~spoof:(addr "99.0.0.1") outside;
  Sim.run sim;
  checki "spoofed exit blocked" 0 !got;
  checki "egress drop counted" 1 (Ingress.egress_drops guard);
  checki "node accounting" 1 (Node.drop_count gw Aitf_obs.Ledger.Egress_spoof);
  checki "ledger accounting" 100
    Aitf_obs.Ledger.(packet_bytes (of_sim sim) Legit Egress_spoof)

let test_ingress_genuine_egress_passes () =
  let sim, net, inside, _, outside, guard = ingress_rig () in
  let got = ref 0 in
  outside.Node.local_deliver <- (fun _ _ -> incr got);
  send_via net inside outside;
  Sim.run sim;
  checki "genuine passes" 1 !got;
  checki "no drops" 0 (Ingress.egress_drops guard)

let test_ingress_outside_claiming_inside_dropped () =
  let sim, net, inside, _, outside, guard = ingress_rig () in
  let got = ref 0 in
  inside.Node.local_deliver <- (fun _ _ -> incr got);
  send_via net outside ~spoof:(addr "20.0.0.9") inside;
  Sim.run sim;
  checki "impersonation blocked" 0 !got;
  checki "ingress drop counted" 1 (Ingress.ingress_drops guard)

let test_ingress_normal_transit_passes () =
  let sim, net, inside, _, outside, guard = ingress_rig () in
  let got = ref 0 in
  inside.Node.local_deliver <- (fun _ _ -> incr got);
  send_via net outside inside;
  Sim.run sim;
  checki "outside-to-inside passes" 1 !got;
  checki "no false positives" 0
    (Ingress.ingress_drops guard + Ingress.egress_drops guard)

let test_ingress_direction_toggles () =
  (* egress-only install must not perform ingress checks. *)
  let sim = Sim.create () in
  let net = Network.create sim in
  let inside = Network.add_node net ~name:"i" ~addr:(addr "20.0.0.5") ~as_id:1 Node.Host in
  let gw = Network.add_node net ~name:"g" ~addr:(addr "20.0.0.1") ~as_id:1 Node.Border_router in
  let outside = Network.add_node net ~name:"o" ~addr:(addr "30.0.0.5") ~as_id:2 Node.Host in
  ignore (Network.connect net inside gw ~bandwidth:1e9 ~delay:0.001);
  ignore (Network.connect net gw outside ~bandwidth:1e9 ~delay:0.001);
  Network.compute_routes net;
  let guard =
    Ingress.install ~ingress:false net gw
      ~cone:[ Addr.prefix_of_string "20.0.0.0/24" ]
  in
  let got = ref 0 in
  inside.Node.local_deliver <- (fun _ _ -> incr got);
  send_via net outside ~spoof:(addr "20.0.0.9") inside;
  Sim.run sim;
  checki "ingress check disabled" 1 !got;
  checki "alias works" 0 (Ingress.spoofed_exits_prevented guard)

(* --- Wildcard aggregation under pressure ------------------------------------- *)

let test_protocol_aggregation_protects_under_pressure () =
  let config =
    {
      fast_config with
      Config.aggregate_on_pressure = true;
      r1 = 1000.;
      r1_burst = 1000.;
    }
  in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:19 in
  let topo = Chain.build sim Chain.default_spec in
  let d =
    Chain.deploy ~victim_td:0.01 ~victim_filter_capacity:2 ~config ~rng topo
  in
  for i = 0 to 7 do
    ignore
      (Aitf_workload.Traffic.cbr
         ~spoof:(fun () -> Some (Addr.add (addr "20.0.3.0") i))
         ~start:0.2 ~attack:true ~flow_id:(400 + i) ~rate:2e5
         ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker)
  done;
  Sim.run ~until:0.8 sim;
  let vgw = List.hd d.Chain.victim_gateways in
  checkb "aggregate installed" true
    (Gateway.count vgw Gateway.Filter_aggregated >= 1);
  (* The wildcard must be live and blocking everything to the victim. *)
  let probe =
    Packet.make ~src:(addr "20.0.3.200") ~dst:topo.Chain.victim.Node.addr
      ~size:100
      (Packet.Data { flow_id = 0; attack = true })
  in
  checkb "wildcard blocks unseen sources too" true
    (Filter_table.would_block (Gateway.filters vgw) probe);
  checkb "capacity respected" true
    (Filter_table.occupancy (Gateway.filters vgw) <= 2)

(* --- Contract ----------------------------------------------------------------- *)

let test_contract_provisioning_matches_formulas () =
  let c = Contract.paper_default in
  let p = Contract.provision c ~t_filter:60. ~t_tmp:0.6 in
  checki "Nv" 6000 p.Contract.protected_flows;
  checki "nv" 60 p.Contract.provider_filters;
  checki "mv" 6000 p.Contract.provider_shadow;
  checki "na" 60 p.Contract.client_side_filters

let test_contract_sufficiency () =
  let c = Contract.paper_default in
  checkb "default config suffices for the paper contract" true
    (Contract.sufficient c ~config:Config.default);
  let tiny = { Config.default with Config.filter_capacity = 10 } in
  checkb "10 filters cannot honor R1=100" false
    (Contract.sufficient c ~config:tiny)

let test_contract_validation_and_bursts () =
  checkb "zero rate rejected" true
    (try ignore (Contract.v ~r1:0. ~r2:1. ()); false
     with Invalid_argument _ -> true);
  let c = Contract.v ~r1:0.5 ~r2:0.5 () in
  checkb "burst floored at 1" true
    (c.Contract.r1_burst >= 1. && c.Contract.r2_burst >= 1.)

let test_contract_apply_polices_both_directions () =
  (* Apply a tight contract to one client of a gateway and check both
     policers take effect: R1 on the client's own requests, R2 on requests
     propagated to it. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:9 in
  let topo = Chain.build sim Chain.default_spec in
  let config = { fast_config with Config.r1 = 1000.; r1_burst = 1000. } in
  let d = Chain.deploy ~victim_td:0.01 ~config ~rng topo in
  let vgw = List.hd d.Chain.victim_gateways in
  let tight = Contract.v ~r1:2. ~r1_burst:2. ~r2:1. () in
  Contract.apply_provider_side vgw ~client:topo.Chain.victim.Node.addr tight;
  (* Ten flows detected at once: only ~2 requests admitted under R1=2. *)
  for i = 0 to 9 do
    ignore
      (Aitf_workload.Traffic.cbr
         ~spoof:(fun () -> Some (Addr.add (addr "20.0.4.0") i))
         ~start:0.2 ~attack:true ~flow_id:(500 + i) ~rate:2e5
         ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker)
  done;
  Sim.run ~until:0.8 sim;
  checkb "R1 enforced" true (Gateway.count vgw Gateway.Req_policed >= 6)

let test_protocol_active_flows_observability () =
  let r = make_rig () in
  (* End the attack at t = 2 so the state can fully drain. *)
  ignore (Sim.at r.sim 2.0 (fun () -> Aitf_workload.Traffic.halt r.attack));
  Sim.run ~until:1.5 r.sim;
  (* Within Ttmp of the request the flow is in the Filtering phase... by
     1.5 s (request ~0.6, Ttmp 0.5) it has moved to monitoring. *)
  (match Gateway.active_flows (victim_gw r) with
  | [ (flow, phase) ] ->
    checkb "right flow" true
      (Flow_label.equal flow
         (Flow_label.host_pair r.topo.Chain.attacker.Node.addr
            r.topo.Chain.victim.Node.addr));
    checkb "monitoring phase" true (phase = "monitoring")
  | l -> Alcotest.failf "expected one flow, got %d" (List.length l));
  Sim.run ~until:10.0 r.sim;
  checki "expired after T" 0 (List.length (Gateway.active_flows (victim_gw r)))

let test_protocol_policer_table_bounded () =
  (* 5000 forged requests with 5000 distinct requestor addresses must not
     allocate 5000 policers; past the bound the forgers share one bucket
     and get collectively policed. *)
  let config =
    { fast_config with Config.remote_rate = 50.; remote_burst = 50. }
  in
  let r = make_rig ~config () in
  let bgw1_node = List.hd r.topo.Chain.attacker_gws in
  let m = r.topo.Chain.attacker in
  for i = 0 to 4999 do
    ignore
      (Sim.at r.sim
         (0.05 +. (1e-4 *. float_of_int i))
         (fun () ->
           Network.originate r.topo.Chain.net m
             (Message.packet ~src:m.Node.addr ~dst:bgw1_node.Node.addr
                (Message.Filtering_request
                   {
                     Message.flow =
                       Flow_label.host_pair (Addr.add (addr "30.0.0.0") i)
                         r.topo.Chain.victim.Node.addr;
                     target = Message.To_attacker_gateway;
                     duration = 6.0;
                     path = [ bgw1_node.Node.addr ];
                     hops = 0;
                     requestor = Addr.add (addr "40.0.0.0") i;
                     corr = 0;
                     auth = 0L;
                   }))))
  done;
  Sim.run ~until:1.5 r.sim;
  let gw = attacker_gw r 0 in
  let c = Gateway.count gw in
  checkb "tracking bounded" true (Gateway.tracked_requestors gw <= 4096);
  checkb "overflow bucket engaged" true
    (c Gateway.Policer_overflow > 0);
  checkb "overflow collectively policed" true
    (c Gateway.Req_policed > 500);
  (* The rig's genuine attack flow is legitimately filtered; none of the
     5000 forged flows may be. *)
  checkb "only the genuine flow filtered" true
    (Filter_table.occupancy (Gateway.filters gw) <= 1);
  checkb "no forged filter" false
    (Filter_table.would_block (Gateway.filters gw)
       (Packet.make ~src:(addr "30.0.0.5") ~dst:r.topo.Chain.victim.Node.addr
          ~size:100
          (Packet.Data { flow_id = 0; attack = true })))

(* --- Legacy host protection ------------------------------------------------------ *)

let legacy_rig () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:15 in
  let net = Network.create sim in
  let legacy =
    Network.add_node net ~name:"legacy" ~addr:(addr "10.0.0.10") ~as_id:1
      Node.Host
  in
  let g_gw =
    Network.add_node net ~name:"g_gw" ~addr:(addr "10.0.0.1") ~as_id:1
      Node.Border_router
  in
  let b_gw =
    Network.add_node net ~name:"b_gw" ~addr:(addr "20.0.0.1") ~as_id:2
      Node.Border_router
  in
  let attacker =
    Network.add_node net ~name:"atk" ~addr:(addr "20.0.0.66") ~as_id:2
      Node.Host
  in
  ignore (Network.connect net legacy g_gw ~bandwidth:1e7 ~delay:0.01);
  ignore (Network.connect net g_gw b_gw ~bandwidth:1e9 ~delay:0.01);
  ignore (Network.connect net b_gw attacker ~bandwidth:1e7 ~delay:0.01);
  Network.compute_routes net;
  let g =
    Gateway.create ~clients:[ Addr.prefix_of_string "10.0.0.0/24" ]
      ~config:fast_config ~rng:(Rng.split rng) net g_gw
  in
  let b =
    Gateway.create ~clients:[ Addr.prefix_of_string "20.0.0.0/24" ]
      ~config:fast_config ~rng:(Rng.split rng) net b_gw
  in
  let protector =
    Legacy.attach ~td:0.05 ~protect:[ Addr.prefix_of_string "10.0.0.0/28" ]
      ~gateway:g net
  in
  (sim, net, legacy, attacker, g, b, protector)

let test_legacy_protection_end_to_end () =
  let sim, net, legacy, attacker, g, b, protector = legacy_rig () in
  (* The legacy host understands nothing: record what it receives. *)
  let data = ref 0 and control = ref 0 in
  legacy.Node.local_deliver <-
    (fun _ (pkt : Packet.t) ->
      match pkt.Packet.payload with
      | Packet.Data _ -> incr data
      | _ -> incr control);
  let (_ : Aitf_workload.Traffic.t) =
    Aitf_workload.Traffic.cbr ~start:0.5 ~attack:true ~flow_id:1 ~rate:8e5
      ~dst:legacy.Node.addr net attacker
  in
  Sim.run ~until:4.0 sim;
  checkb "protector detected and requested" true
    (Legacy.count protector Host_agent.Victim.Request_sent >= 1);
  checki "flow detected once" 1 (Legacy.flows_detected protector);
  checkb "protector answered the handshake" true
    (Legacy.count protector Host_agent.Victim.Victim_confirmed >= 1);
  checki "attacker-side filter installed" 1
    (Gateway.count b Gateway.Handshake_ok);
  checkb "flow suppressed (leak under 15% of offered)" true
    (float_of_int !data < 0.15 *. (8e5 *. 3.5 /. 8. /. 1000.));
  checki "legacy host saw no protocol messages" 0 !control;
  checkb "victim-side gateway served the request" true
    (Gateway.count g Gateway.Req_victim_role >= 1)

let test_legacy_ignores_unprotected () =
  let sim, net, _, attacker, _, _, protector = legacy_rig () in
  (* Attack a destination outside the protected /28: the protector must not
     react. *)
  let outside =
    Network.add_node net ~name:"other" ~addr:(addr "10.0.0.200") ~as_id:1
      Node.Host
  in
  ignore
    (Network.connect net
       (Option.get (Network.node_by_name net "g_gw"))
       outside ~bandwidth:1e7 ~delay:0.01);
  Network.compute_routes net;
  let (_ : Aitf_workload.Traffic.t) =
    Aitf_workload.Traffic.cbr ~start:0.2 ~attack:true ~flow_id:1 ~rate:8e5
      ~dst:outside.Node.addr net attacker
  in
  Sim.run ~until:2.0 sim;
  checki "no requests" 0 (Legacy.count protector Host_agent.Victim.Request_sent);
  checkb "covers only the /28" true
    (Legacy.protects protector (addr "10.0.0.10")
    && not (Legacy.protects protector (addr "10.0.0.200")))

(* --- Strategy x cooperation matrix ---------------------------------------------- *)

(* Whatever the attacker does and however many gateways defect, the flow
   must end up suppressed, with the long filter exactly at the (k+1)-th
   attacker-side node. One sub-assertion per grid cell. *)
let test_protocol_matrix () =
  let strategies =
    [
      ("complies", Policy.Complies);
      ("ignores", Policy.Ignores);
      ("onoff", Policy.On_off { off_time = fast_config.Config.t_tmp +. 0.2 });
    ]
  in
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun k ->
          let r =
            make_rig ~attacker_strategy:strategy ~n_non_coop:k ()
          in
          let quiet = run_quiet_last_second r ~until:5.0 in
          let label = Printf.sprintf "%s/k=%d" sname k in
          checkb (label ^ ": suppressed") true quiet;
          let holder = attacker_gw r k in
          checkb (label ^ ": filter at k-th gateway") true
            (Gateway.count holder Gateway.Filter_long >= 1);
          (* No attacker-side gateway closer to the attacker holds one. *)
          for j = 0 to k - 1 do
            checkb
              (Printf.sprintf "%s: B_gw%d holds nothing" label (j + 1))
              true
              (Gateway.count (attacker_gw r j) Gateway.Filter_long = 0)
          done)
        [ 0; 1; 2 ])
    strategies

(* --- Replay attack ------------------------------------------------------------ *)

let test_protocol_replay_after_t_rejected () =
  (* M records a genuine filtering request and replays it after the victim's
     interest (and its outstanding-request entry) has expired: the handshake
     must fail and no filter may appear. *)
  let r = make_rig ~attacker_strategy:Policy.Complies () in
  (* The attack ends for good at t = 2; past T the victim wants nothing
     blocked any more, so a replayed request is pure forgery. *)
  ignore (Sim.at r.sim 2.0 (fun () -> Aitf_workload.Traffic.halt r.attack));
  Sim.run ~until:3.0 r.sim;
  (* the genuine round happened *)
  checki "genuine filter installed" 1
    (Gateway.count (attacker_gw r 0) Gateway.Filter_long);
  let replayed =
    {
      Message.flow =
        Flow_label.host_pair r.topo.Chain.attacker.Node.addr
          r.topo.Chain.victim.Node.addr;
      target = Message.To_attacker_gateway;
      duration = fast_config.Config.t_filter;
      path = [ (List.hd r.topo.Chain.attacker_gws).Node.addr ];
      hops = 0;
      requestor = (List.hd r.topo.Chain.victim_gws).Node.addr;
      corr = 0;
      auth = 0L;
    }
  in
  (* Well past T (6 s) + the victim's memory of the request. The attacker
     complied, so nothing is flowing and the victim wants nothing blocked. *)
  ignore
    (Sim.at r.sim 14.0 (fun () ->
         Network.originate r.topo.Chain.net r.topo.Chain.attacker
           (Message.packet ~src:r.topo.Chain.attacker.Node.addr
              ~dst:(List.hd r.topo.Chain.attacker_gws).Node.addr
              (Message.Filtering_request replayed))));
  Sim.run ~until:17.0 r.sim;
  let c = Gateway.count (attacker_gw r 0) in
  checkb "replay failed verification" true
    (c Gateway.Handshake_fail >= 1);
  checki "no filter from the replay" 0
    (Filter_table.occupancy (Gateway.filters (attacker_gw r 0)))

let () =
  Alcotest.run "aitf_core"
    [
      ( "message",
        [ Alcotest.test_case "packet" `Quick test_message_packet ] );
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "timescale" `Quick test_config_timescale;
        ] );
      ( "legacy",
        [
          Alcotest.test_case "end to end" `Quick
            test_legacy_protection_end_to_end;
          Alcotest.test_case "ignores unprotected" `Quick
            test_legacy_ignores_unprotected;
        ] );
      ( "contract",
        [
          Alcotest.test_case "provisioning" `Quick
            test_contract_provisioning_matches_formulas;
          Alcotest.test_case "sufficiency" `Quick test_contract_sufficiency;
          Alcotest.test_case "validation" `Quick
            test_contract_validation_and_bursts;
          Alcotest.test_case "apply polices" `Quick
            test_contract_apply_polices_both_directions;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "success" `Quick test_handshake_success;
          Alcotest.test_case "timeout" `Quick test_handshake_timeout;
          Alcotest.test_case "wrong nonce" `Quick test_handshake_wrong_nonce;
          Alcotest.test_case "wrong flow" `Quick test_handshake_wrong_flow;
          Alcotest.test_case "late reply" `Quick
            test_handshake_reply_after_timeout_ignored;
          Alcotest.test_case "concurrent" `Quick
            test_handshake_concurrent_independent;
        ] );
      ( "detection",
        [
          Alcotest.test_case "td delay" `Quick test_detection_td_delay;
          Alcotest.test_case "no duplicate pending" `Quick
            test_detection_no_duplicate_while_pending;
          Alcotest.test_case "instant redetect" `Quick
            test_detection_instant_redetection;
          Alcotest.test_case "gap damping" `Quick test_detection_gap_damping;
          Alcotest.test_case "per-flow state" `Quick
            test_detection_per_flow_state;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip request" `Quick
            test_wire_roundtrip_request;
          Alcotest.test_case "roundtrip handshake" `Quick
            test_wire_roundtrip_handshake;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "rejects non-aitf" `Quick test_wire_rejects_non_aitf;
          QCheck_alcotest.to_alcotest wire_roundtrip_property;
          QCheck_alcotest.to_alcotest wire_decode_never_raises;
        ] );
      ( "ingress",
        [
          Alcotest.test_case "egress spoof dropped" `Quick
            test_ingress_egress_spoof_dropped;
          Alcotest.test_case "genuine egress passes" `Quick
            test_ingress_genuine_egress_passes;
          Alcotest.test_case "impersonation dropped" `Quick
            test_ingress_outside_claiming_inside_dropped;
          Alcotest.test_case "normal transit passes" `Quick
            test_ingress_normal_transit_passes;
          Alcotest.test_case "direction toggles" `Quick
            test_ingress_direction_toggles;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "basic block" `Quick test_protocol_basic_block;
          Alcotest.test_case "temp filter expiry" `Quick
            test_protocol_temp_filter_expires;
          Alcotest.test_case "attacker complies" `Quick
            test_protocol_attacker_complies;
          Alcotest.test_case "escalation" `Quick
            test_protocol_escalation_unresponsive_gw;
          Alcotest.test_case "terminal filtering" `Quick
            test_protocol_terminal_when_all_unresponsive;
          Alcotest.test_case "disconnection" `Quick test_protocol_disconnection;
          Alcotest.test_case "bystander survives" `Quick
            test_protocol_bystander_survives_disconnection;
          Alcotest.test_case "handshake blocks forgery" `Quick
            test_protocol_handshake_blocks_forgery;
          Alcotest.test_case "forgery without handshake" `Quick
            test_protocol_forgery_succeeds_without_handshake;
          Alcotest.test_case "policing r1" `Quick test_protocol_policing_r1;
          Alcotest.test_case "polices remote" `Quick
            test_protocol_gateway_polices_remote_requests;
          Alcotest.test_case "invalid requestor" `Quick
            test_protocol_invalid_requestor_rejected;
          Alcotest.test_case "not on path" `Quick
            test_protocol_not_on_path_rejected;
          Alcotest.test_case "duplicates coalesce" `Quick
            test_protocol_duplicate_requests_coalesce;
          Alcotest.test_case "client policer r2" `Quick
            test_protocol_client_policer_r2;
          Alcotest.test_case "filter capacity" `Quick
            test_protocol_filter_capacity_exhaustion;
          Alcotest.test_case "spie mode" `Quick
            test_protocol_spie_traceback_mode;
          Alcotest.test_case "ppm path source" `Quick
            test_protocol_ppm_path_source;
          Alcotest.test_case "victim answers queries" `Quick
            test_protocol_victim_answers_queries;
          Alcotest.test_case "on-off via shadow" `Quick
            test_protocol_onoff_detected_by_shadow;
          Alcotest.test_case "aggregation under pressure" `Quick
            test_protocol_aggregation_protects_under_pressure;
          Alcotest.test_case "replay after T rejected" `Quick
            test_protocol_replay_after_t_rejected;
          Alcotest.test_case "strategy x cooperation matrix" `Slow
            test_protocol_matrix;
          Alcotest.test_case "policer table bounded" `Quick
            test_protocol_policer_table_bounded;
          Alcotest.test_case "active flows observability" `Quick
            test_protocol_active_flows_observability;
        ] );
    ]
