(* Tests for the fault-injection library and the reliable control plane:
   fault models on a live link, handshake retransmission/backoff, duplicate
   idempotence at the gateways, and regression tests for the satellite
   fixes (heap retention, event-queue length, link double-counting, RED
   idle decay). *)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Heap = Aitf_engine.Heap
module Event_queue = Aitf_engine.Event_queue
module Fault = Aitf_fault.Fault
open Aitf_net
open Aitf_filter
open Aitf_core
module Scenarios = Aitf_workload.Scenarios

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let addr = Addr.of_string

(* --- Fault models on a live link ------------------------------------------ *)

(* A 1 Mbit/s link with its deliver seam installed, collecting arrivals. *)
let test_link sim =
  let link =
    Link.create sim ~name:"faulty" ~bandwidth:1e6 ~delay:0.01
      ~queue_capacity:1_000_000
  in
  let arrivals = ref [] in
  Link.set_deliver link (fun pkt -> arrivals := (Sim.now sim, pkt) :: !arrivals);
  (link, arrivals)

let data_packet ?(size = 1000) () =
  Packet.make ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2") ~size
    (Packet.Data { flow_id = 0; attack = false })

let ctrl_packet () =
  Message.packet ~src:(addr "1.0.0.1") ~dst:(addr "2.0.0.2")
    (Message.Verification_query
       { flow = Flow_label.host_pair (addr "1.0.0.1") (addr "2.0.0.2");
         nonce = 42L })

let test_loss_all () =
  let sim = Sim.create () in
  let link, arrivals = test_link sim in
  let inj = Fault.inject ~rng:(Rng.create ~seed:1) sim link [ Fault.Loss 1.0 ] in
  for _ = 1 to 10 do Link.send link (data_packet ()) done;
  Sim.run sim;
  checki "nothing delivered" 0 (List.length !arrivals);
  checki "all drops injected" 10 (Fault.count inj Fault.Dropped_other);
  (* The wire was genuinely occupied: the link still accounts the packets
     as transmitted; only the injector records the sabotage. *)
  checki "link tx unaffected" 10 (Link.tx_packets link)

let test_loss_none () =
  let sim = Sim.create () in
  let link, arrivals = test_link sim in
  let inj = Fault.inject ~rng:(Rng.create ~seed:1) sim link [ Fault.Loss 0.0 ] in
  for _ = 1 to 10 do Link.send link (data_packet ()) done;
  Sim.run sim;
  checki "all delivered" 10 (List.length !arrivals);
  checki "no drops injected" 0 (Fault.drops inj)

let test_loss_seeded () =
  let run seed =
    let sim = Sim.create () in
    let link, arrivals = test_link sim in
    ignore (Fault.inject ~rng:(Rng.create ~seed) sim link [ Fault.Loss 0.5 ]);
    for _ = 1 to 200 do Link.send link (data_packet ()) done;
    Sim.run sim;
    List.length !arrivals
  in
  checki "same seed, same outcome" (run 7) (run 7);
  let n = run 7 in
  checkb "roughly half delivered" true (n > 60 && n < 140)

let test_burst_loss () =
  let sim = Sim.create () in
  let link, arrivals = test_link sim in
  (* p_enter = 1: the channel falls into the all-loss bad state on the
     first packet and, with p_exit = 0, never recovers. *)
  let inj =
    Fault.inject ~rng:(Rng.create ~seed:3) sim link
      [ Fault.burst ~p_enter:1.0 ~p_exit:0.0 () ]
  in
  for _ = 1 to 20 do Link.send link (data_packet ()) done;
  Sim.run sim;
  checkb "at most the first packet escaped" true (List.length !arrivals <= 1);
  checkb "stuck in the bad state" true (Fault.in_bad_state inj)

let test_jitter_bounds () =
  let sim = Sim.create () in
  let link, arrivals = test_link sim in
  let inj =
    Fault.inject ~rng:(Rng.create ~seed:5) sim link
      [ Fault.Jitter { max_jitter = 0.5 } ]
  in
  for _ = 1 to 20 do Link.send link (data_packet ()) done;
  Sim.run sim;
  checki "all delivered" 20 (List.length !arrivals);
  checkb "some were delayed" true (Fault.count inj Fault.Delayed > 0);
  (* Serialization of the 20th packet ends at 0.16 s; nominal arrival is
     0.01 s later, jitter adds at most 0.5 s. *)
  List.iter
    (fun (t, _) -> checkb "within jitter bound" true (t <= 0.16 +. 0.01 +. 0.5))
    !arrivals

let test_duplicate_all () =
  let sim = Sim.create () in
  let link, arrivals = test_link sim in
  let inj =
    Fault.inject ~rng:(Rng.create ~seed:9) sim link [ Fault.Duplicate 1.0 ]
  in
  for _ = 1 to 5 do Link.send link (data_packet ()) done;
  Sim.run sim;
  checki "every packet arrives twice" 10 (List.length !arrivals);
  checki "dups counted" 5 (Fault.count inj Fault.Duplicated)

let test_ctrl_only () =
  let sim = Sim.create () in
  let link, arrivals = test_link sim in
  let inj =
    Fault.inject ~only:Fault.ctrl_only ~rng:(Rng.create ~seed:2) sim link
      [ Fault.Loss 1.0 ]
  in
  for _ = 1 to 5 do Link.send link (data_packet ()) done;
  for _ = 1 to 5 do Link.send link (ctrl_packet ()) done;
  Sim.run sim;
  checki "data bypasses the models" 5 (List.length !arrivals);
  checkb "only data arrived" true
    (List.for_all (fun (_, p) -> not (Packet.is_control p)) !arrivals);
  checki "control dropped" 5 (Fault.count inj Fault.Dropped_query)

let test_flap_schedule () =
  let sim = Sim.create () in
  let link, arrivals = test_link sim in
  (* Down for 1 s out of every 3, starting at t = 1. Probe with one packet
     every 0.5 s: those entering the wire inside a down window are lost. *)
  let f = Fault.flap ~start:1.0 sim [ link ] ~period:3.0 ~down_for:1.0 in
  for i = 0 to 19 do
    ignore
      (Sim.at sim (0.25 +. (0.5 *. float_of_int i)) (fun () ->
           Link.send link (data_packet ())))
  done;
  Sim.run ~until:10.5 sim;
  (* Down windows [1,2) [4,5) [7,8) [10,11): four episodes begun. *)
  checki "down episodes" 4 (Fault.flapper_count f Fault.Flap);
  (* Probes at 1.25, 1.75, 4.25, 4.75, 7.25, 7.75 fall inside down
     windows and are lost. *)
  checkb "packets lost during down windows" true
    (List.length !arrivals <= 20 - 6);
  Fault.stop_flapping f;
  checkb "links restored by stop" true (Link.up link)

let test_flap_validation () =
  let sim = Sim.create () in
  let link, _ = test_link sim in
  Alcotest.check_raises "period must exceed down_for"
    (Invalid_argument "Fault.flap: period must exceed down_for") (fun () ->
      ignore (Fault.flap sim [ link ] ~period:1.0 ~down_for:1.0))

(* --- Handshake retransmission --------------------------------------------- *)

let flow_av = Flow_label.host_pair (addr "1.0.0.1") (addr "2.0.0.2")

let test_handshake_retransmit_backoff () =
  let sim = Sim.create () in
  let h =
    Handshake.create ~retries:3 sim (Rng.create ~seed:1)
      ~timeout:1.0
  in
  let sends = ref [] in
  let results = ref [] in
  ignore
    (Handshake.start h ~flow:flow_av
       ~send:(fun _ -> sends := Sim.now sim :: !sends)
       ~on_result:(fun r -> results := r :: !results));
  Sim.run sim;
  (* Initial send at 0, then timeouts at 1, 1+2, 1+2+4; giving up 8 s after
     the last retransmission. *)
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "send times with exponential backoff" [ 0.; 1.; 3.; 7. ]
    (List.rev !sends);
  check (Alcotest.list Alcotest.bool) "failed exactly once" [ false ] !results;
  checki "three retransmissions sent" 3 (List.length !sends - 1);
  checki "one timeout however many attempts" 1
    (List.length (List.filter not !results))

let test_handshake_reply_after_retransmit () =
  let sim = Sim.create () in
  let h =
    Handshake.create ~retries:3 sim (Rng.create ~seed:1)
      ~timeout:1.0
  in
  let results = ref [] in
  let sends = ref 0 in
  let nonce =
    Handshake.start h ~flow:flow_av
      ~send:(fun _ -> incr sends)
      ~on_result:(fun r -> results := r :: !results)
  in
  (* Reply lands between the 2nd and 3rd retransmission. *)
  ignore
    (Sim.at sim 4.0 (fun () ->
         ignore (Handshake.handle_reply h ~flow:flow_av ~nonce)));
  Sim.run sim;
  check (Alcotest.list Alcotest.bool) "verified exactly once" [ true ] !results;
  checki "verified" 1 (List.length (List.filter Fun.id !results));
  checki "two retransmits before the reply" 2 (!sends - 1)

(* The handshake counts nothing itself; tests count the reply classes
   [handle_reply] returns, as the gateway does. *)
let occurrences x l = List.length (List.filter (( = ) x) l)

let test_handshake_duplicate_reply_noop () =
  let sim = Sim.create () in
  let h =
    Handshake.create ~retries:1 sim (Rng.create ~seed:1) ~timeout:1.0
  in
  let results = ref [] in
  let nonce =
    Handshake.start h ~flow:flow_av
      ~send:(fun _ -> ())
      ~on_result:(fun r -> results := r :: !results)
  in
  let replies = ref [] in
  let reply flow () =
    replies := Handshake.handle_reply h ~flow ~nonce :: !replies
  in
  ignore (Sim.at sim 0.2 (reply flow_av));
  ignore (Sim.at sim 0.3 (reply flow_av));
  ignore (Sim.at sim 0.4 (reply flow_av));
  Sim.run sim;
  check (Alcotest.list Alcotest.bool) "on_result fired once" [ true ] !results;
  checki "verified once" 1 (occurrences Handshake.Verified !replies);
  checki "replays counted as duplicates" 2
    (occurrences Handshake.Duplicate !replies);
  checki "not as forgeries" 0 (occurrences Handshake.Bogus !replies)

let test_handshake_replayed_nonce_wrong_flow_is_bogus () =
  let sim = Sim.create () in
  let h = Handshake.create sim (Rng.create ~seed:1) ~timeout:1.0 in
  let nonce =
    Handshake.start h ~flow:flow_av ~send:(fun _ -> ()) ~on_result:(fun _ -> ())
  in
  let other = Flow_label.host_pair (addr "9.0.0.9") (addr "2.0.0.2") in
  let replies = ref [] in
  let reply flow () =
    replies := Handshake.handle_reply h ~flow ~nonce :: !replies
  in
  ignore (Sim.at sim 0.2 (reply flow_av));
  ignore (Sim.at sim 0.3 (reply other));
  Sim.run sim;
  checki "cross-flow replay is a forgery" 1
    (occurrences Handshake.Bogus !replies);
  checki "not a duplicate" 0 (occurrences Handshake.Duplicate !replies)

(* --- Duplicate requests at the gateways are free no-ops ------------------- *)

(* A gateway with a one-token contract: the first request spends the token;
   its duplicate must be recognised — and acknowledged — without touching
   the bucket or the filter table a second time. *)

let request ~flow ~target ~path ~requestor =
  {
    Message.flow;
    target;
    duration = 60.;
    path;
    hops = 0;
    requestor;
    corr = 0;
    auth = 0L;
  }

let test_victim_gateway_duplicate_free () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let gw_node =
    Network.add_node net ~name:"gw" ~addr:(addr "10.0.0.1") ~as_id:1
      Node.Border_router
  in
  let victim =
    Network.add_node net ~name:"v" ~addr:(addr "10.0.0.10") ~as_id:1 Node.Host
  in
  ignore
    (Network.connect net gw_node victim ~bandwidth:1e6 ~delay:0.01
       ~queue_capacity:65536);
  Network.compute_routes net;
  let config = { Config.default with Config.r1 = 1.0; r1_burst = 1.0 } in
  let gw =
    Gateway.create ~clients:[ Addr.prefix (addr "10.0.0.0") 8 ] ~config
      ~rng:(Rng.create ~seed:1) net gw_node
  in
  let flow = Flow_label.host_pair (addr "20.0.0.66") (addr "10.0.0.10") in
  let req =
    Message.Filtering_request
      (request ~flow ~target:Message.To_victim_gateway ~path:[]
         ~requestor:(addr "10.0.0.10"))
  in
  let pkt () = Message.packet ~src:(addr "10.0.0.10") ~dst:(addr "10.0.0.1") req in
  gw_node.Node.local_deliver gw_node (pkt ());
  let occupancy_after_first = Filter_table.occupancy (Gateway.filters gw) in
  gw_node.Node.local_deliver gw_node (pkt ());
  gw_node.Node.local_deliver gw_node (pkt ());
  let c = Gateway.count gw in
  checki "duplicates recognised" 2 (c Gateway.Req_duplicate);
  (* Pre-fix, the duplicate hit the empty one-token bucket first and was
     misclassified as a contract violation. *)
  checki "bucket untouched by duplicates" 0 (c Gateway.Req_policed);
  checki "filter not double-installed" occupancy_after_first
    (Filter_table.occupancy (Gateway.filters gw))

let test_attacker_gateway_duplicate_free () =
  let sim = Sim.create () in
  let net = Network.create sim in
  let gw_node =
    Network.add_node net ~name:"bgw" ~addr:(addr "20.0.0.1") ~as_id:1
      Node.Border_router
  in
  let attacker =
    Network.add_node net ~name:"b" ~addr:(addr "20.0.0.66") ~as_id:1 Node.Host
  in
  ignore
    (Network.connect net gw_node attacker ~bandwidth:1e6 ~delay:0.01
       ~queue_capacity:65536);
  Network.compute_routes net;
  (* Handshake off so the request installs synchronously; remote contract of
     one token so a double-billed duplicate would be policed. *)
  let config =
    { Config.default with Config.handshake = false; remote_rate = 1.0;
      remote_burst = 1.0 }
  in
  let gw =
    Gateway.create ~clients:[ Addr.prefix (addr "20.0.0.0") 8 ] ~config
      ~rng:(Rng.create ~seed:1) net gw_node
  in
  let flow = Flow_label.host_pair (addr "20.0.0.66") (addr "10.0.0.10") in
  let req =
    Message.Filtering_request
      (request ~flow ~target:Message.To_attacker_gateway
         ~path:[ addr "20.0.0.1" ] ~requestor:(addr "10.0.0.1"))
  in
  let pkt () = Message.packet ~src:(addr "10.0.0.1") ~dst:(addr "20.0.0.1") req in
  gw_node.Node.local_deliver gw_node (pkt ());
  let c = Gateway.count gw in
  checki "long filter installed once" 1 (c Gateway.Filter_long);
  gw_node.Node.local_deliver gw_node (pkt ());
  gw_node.Node.local_deliver gw_node (pkt ());
  checki "duplicates recognised" 2 (c Gateway.Req_duplicate);
  checki "bucket untouched by duplicates" 0 (c Gateway.Req_policed);
  checki "still exactly one install" 1 (c Gateway.Filter_long);
  checki "occupancy is one filter" 1 (Filter_table.occupancy (Gateway.filters gw))

(* --- End-to-end: the protocol under control-plane faults ------------------ *)

let fault_chain_params =
  {
    Scenarios.default_chain with
    Scenarios.config =
      { (Config.with_timescale Config.default 0.1) with Config.grace = 0.3 };
    duration = 30.;
    seed = 11;
  }

let test_converges_under_loss () =
  let r =
    Scenarios.run_chain
      {
        fault_chain_params with
        Scenarios.config =
          { fault_chain_params.Scenarios.config with
            Config.ctrl_retries = 3; ctrl_rto = 0.3 };
        ctrl_faults = [ Fault.Loss 0.2 ];
      }
  in
  checkb "faults actually injected" true (r.Scenarios.faults_injected > 0);
  (match Scenarios.time_to_suppress r ~threshold:0.05 with
  | Some t -> checkb "suppressed in finite time" true (t < 30.)
  | None -> Alcotest.fail "attack never suppressed under 20% control loss");
  checkb "attack mostly blocked" true (r.Scenarios.r_measured < 0.2)

let test_duplicated_control_plane_is_noop () =
  (* Deliver every control message twice and compare against the clean run:
     duplication must change neither verification nor install counts. *)
  let run ctrl_faults =
    let r = Scenarios.run_chain { fault_chain_params with ctrl_faults } in
    let d = r.Scenarios.deployed in
    (* The faults ride the victim's tail circuit, so the duplicated
       filtering requests land on G_gw1; the attacker's gateway shows
       whether the protocol outcome changed. *)
    let g_gw1 = List.hd d.Aitf_topo.Chain.victim_gateways in
    let b_gw1 = List.hd d.Aitf_topo.Chain.attacker_gateways in
    let cb = Gateway.count b_gw1 in
    ( cb Gateway.Handshake_ok,
      cb Gateway.Filter_long,
      Gateway.count g_gw1 Gateway.Req_duplicate,
      r )
  in
  let ok_clean, long_clean, _, r_clean = run [] in
  let ok_dup, long_dup, dups, r_dup = run [ Fault.Duplicate 1.0 ] in
  checkb "duplicates were seen" true (dups > 0);
  checki "handshakes verified unchanged" ok_clean ok_dup;
  checki "long filters installed unchanged" long_clean long_dup;
  checkb "both runs suppress the attack" true
    (r_clean.Scenarios.r_measured < 0.2 && r_dup.Scenarios.r_measured < 0.2);
  (* Each copy is a source term in the ledger, which still conserves. *)
  let ledger =
    Aitf_obs.Ledger.of_sim
      (Network.sim r_dup.Scenarios.deployed.Aitf_topo.Chain.topo.Aitf_topo.Chain.net)
  in
  checkb "copies in the ledger" true
    Aitf_obs.Ledger.(packets ledger Control Fault_duplicate > 0);
  checkb "ledger conserved" true (Aitf_obs.Ledger.check ledger = Ok ())

(* --- Satellite regressions ------------------------------------------------ *)

(* Heap.pop used to leave the popped element's box reachable through the
   backing array (slot data.(size)), pinning it for the heap's lifetime. *)
let test_heap_releases_popped () =
  let h = Heap.create ~cmp:(fun (a : int ref) b -> Int.compare !a !b) in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let v = ref i in
    Weak.set w i (Some v);
    Heap.push h v
  done;
  (* Partial drain: the vacated slots must not pin the popped elements. *)
  for _ = 0 to 3 do ignore (Heap.pop h) done;
  Gc.full_major ();
  for i = 0 to 3 do
    checkb
      (Printf.sprintf "popped element %d collectable after partial drain" i)
      true
      (Weak.get w i = None)
  done;
  (* Full drain: the backing array (including grow's seed copies) must go. *)
  for _ = 4 to 7 do ignore (Heap.pop h) done;
  Gc.full_major ();
  for i = 4 to 7 do
    checkb (Printf.sprintf "element %d collectable after full drain" i) true
      (Weak.get w i = None)
  done

(* Event_queue.length used to count cancelled-but-unpopped entries,
   disagreeing with is_empty. *)
let test_event_queue_length_ignores_cancelled () =
  let q = Event_queue.create () in
  let h1 = Event_queue.schedule q ~time:1.0 (fun () -> ()) in
  let h2 = Event_queue.schedule q ~time:2.0 (fun () -> ()) in
  let _h3 = Event_queue.schedule q ~time:3.0 (fun () -> ()) in
  Event_queue.cancel h1;
  Event_queue.cancel h2;
  Event_queue.cancel h2;
  (* double-cancel is idempotent *)
  checki "length counts live entries only" 1 (Event_queue.length q);
  checkb "not empty while one lives" false (Event_queue.is_empty q);
  checkb "pop skips the cancelled" true
    (match Event_queue.pop q with Some (t, _, _) -> t = 3.0 | None -> false);
  checki "drained" 0 (Event_queue.length q);
  checkb "empty and length agree" true (Event_queue.is_empty q)

(* A packet en route when the link goes down used to be counted both as
   transmitted (at send time) and dropped (at delivery time). *)
let test_link_counts_each_packet_once () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~name:"cut" ~bandwidth:1e6 ~delay:0.1 ~queue_capacity:65536
  in
  Link.set_deliver link (fun _ -> ());
  Link.send link (data_packet ());
  (* Serialization ends at 8 ms; cut the link while the packet is in
     flight, before its delivery at 108 ms. *)
  ignore (Sim.at sim 0.05 (fun () -> Link.set_up link false));
  Sim.run sim;
  checki "not transmitted" 0 (Link.tx_packets link);
  checki "dropped once" 1 (Link.dropped_packets link);
  checki "exactly one outcome" 1
    (Link.tx_packets link + Link.dropped_packets link)

(* The RED average queue used to freeze across idle periods: a stale high
   average early-dropped the first packets after the queue had long
   drained. *)
let test_red_average_decays_when_idle () =
  let sim = Sim.create () in
  let link =
    Link.create
      ~discipline:(Link.Red { min_th = 2000; max_th = 4000; max_p = 1.0 })
      sim ~name:"red" ~bandwidth:1e6 ~delay:0.01 ~queue_capacity:1_000_000
  in
  let delivered = ref 0 in
  Link.set_deliver link (fun _ -> incr delivered);
  (* Phase 1: a 100-packet burst drives the average over the thresholds. *)
  for _ = 1 to 100 do Link.send link (data_packet ()) done;
  let drops_after_burst = ref 0 in
  ignore (Sim.at sim 5.0 (fun () -> drops_after_burst := Link.early_drops link));
  (* Phase 2: after ~95 s of idle the average must have decayed — the
     back-to-back pair must not see a RED early drop. *)
  ignore
    (Sim.at sim 100.0 (fun () ->
         Link.send link (data_packet ());
         Link.send link (data_packet ())));
  Sim.run sim;
  checkb "the burst did trip RED" true (!drops_after_burst > 0);
  checki "no early drop after the idle period" !drops_after_burst
    (Link.early_drops link);
  checkb "post-idle packets delivered" true (!delivered >= 2)

let () =
  Alcotest.run "aitf_fault"
    [
      ( "models",
        [
          Alcotest.test_case "loss 1.0 drops all" `Quick test_loss_all;
          Alcotest.test_case "loss 0.0 drops none" `Quick test_loss_none;
          Alcotest.test_case "seeded loss deterministic" `Quick test_loss_seeded;
          Alcotest.test_case "gilbert-elliott burst" `Quick test_burst_loss;
          Alcotest.test_case "jitter bounded" `Quick test_jitter_bounds;
          Alcotest.test_case "duplication" `Quick test_duplicate_all;
          Alcotest.test_case "ctrl_only filter" `Quick test_ctrl_only;
          Alcotest.test_case "scheduled flaps" `Quick test_flap_schedule;
          Alcotest.test_case "flap validation" `Quick test_flap_validation;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "retransmit with backoff" `Quick
            test_handshake_retransmit_backoff;
          Alcotest.test_case "reply after retransmit" `Quick
            test_handshake_reply_after_retransmit;
          Alcotest.test_case "duplicate reply is a no-op" `Quick
            test_handshake_duplicate_reply_noop;
          Alcotest.test_case "replayed nonce, wrong flow" `Quick
            test_handshake_replayed_nonce_wrong_flow_is_bogus;
        ] );
      ( "idempotence",
        [
          Alcotest.test_case "victim gateway duplicate free" `Quick
            test_victim_gateway_duplicate_free;
          Alcotest.test_case "attacker gateway duplicate free" `Quick
            test_attacker_gateway_duplicate_free;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "converges under 20% ctrl loss" `Quick
            test_converges_under_loss;
          Alcotest.test_case "duplicated control plane is a no-op" `Quick
            test_duplicated_control_plane_is_noop;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "heap releases popped elements" `Quick
            test_heap_releases_popped;
          Alcotest.test_case "event queue length vs cancel" `Quick
            test_event_queue_length_ignores_cancelled;
          Alcotest.test_case "link counts each packet once" `Quick
            test_link_counts_each_packet_once;
          Alcotest.test_case "RED average decays when idle" `Quick
            test_red_average_decays_when_idle;
        ] );
    ]
