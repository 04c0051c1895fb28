(* Tests for the hybrid fluid/packet engine: fluid share arithmetic, filter
   mirroring, probe sampling, and packet/hybrid agreement on the chain
   scenario. *)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
open Aitf_net
module Fluid = Aitf_flowsim.Fluid
module Sampler = Aitf_flowsim.Sampler
module Filter_table = Aitf_filter.Filter_table
module Flow_label = Aitf_filter.Flow_label
module Config = Aitf_core.Config
module Scenarios = Aitf_workload.Scenarios
module Traffic = Aitf_workload.Traffic
module Ledger = Aitf_obs.Ledger

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let close ?(tol = 1e-6) msg expected got =
  if abs_float (expected -. got) > tol *. Float.max 1. (abs_float expected)
  then
    Alcotest.failf "%s: expected %g, got %g" msg expected got

(* A tiny line: src1, src2 -> router -> dst over a 10 Mbit/s bottleneck. *)
let line_topo sim =
  let net = Network.create sim in
  let node name addr =
    Network.add_node net ~name ~addr:(Addr.of_string addr) ~as_id:1
      Node.Host
  in
  let router =
    Network.add_node net ~name:"r" ~addr:(Addr.of_string "1.0.0.1") ~as_id:1
      Node.Router
  in
  let s1 = node "s1" "2.0.0.1" in
  let s2 = node "s2" "3.0.0.1" in
  let dst = node "d" "4.0.0.1" in
  let big = 1e9 and small = 10e6 in
  ignore (Network.connect net s1 router ~bandwidth:big ~delay:0.001);
  ignore (Network.connect net s2 router ~bandwidth:big ~delay:0.001);
  ignore (Network.connect net router dst ~bandwidth:small ~delay:0.001);
  Network.compute_routes net;
  (net, s1, s2, dst)

(* Bits the world's ledger saw the fluid plane deliver for a class. *)
let delivered_bits sim cls =
  8. *. Ledger.fluid_bytes (Ledger.of_sim sim) cls Ledger.Delivered

let test_proportional_share () =
  let sim = Sim.create () in
  let net, s1, s2, dst = line_topo sim in
  let eng = Fluid.create net in
  (* 15 + 5 Mbit/s into a 10 Mbit/s bottleneck: drop-tail shares are
     proportional, 7.5 and 2.5. *)
  let a =
    Fluid.add_aggregate eng ~origin:s1 ~src_base:s1.Node.addr ~n:1 ~rate:15e6
      ~dst:dst.Node.addr ~attack:true ~start:0.
  in
  let b =
    Fluid.add_aggregate eng ~origin:s2 ~src_base:s2.Node.addr ~n:1 ~rate:5e6
      ~dst:dst.Node.addr ~attack:false ~start:0.
  in
  Sim.run ~until:10. sim;
  close "attack share" 7.5e6 (Fluid.delivered_rate a);
  close "legit share" 2.5e6 (Fluid.delivered_rate b);
  (* Delivery integrates from t = 0 over 10 s. *)
  close ~tol:1e-3 "attack bits" 75e6 (delivered_bits sim Ledger.Attack);
  close ~tol:1e-3 "legit bits" 25e6 (delivered_bits sim Ledger.Legit)

let test_filter_mirroring () =
  let sim = Sim.create () in
  let net, s1, s2, dst = line_topo sim in
  let eng = Fluid.create net in
  let router = Option.get (Network.node_by_addr net (Addr.of_string "1.0.0.1")) in
  let table = Filter_table.create sim ~capacity:64 in
  Fluid.attach_table eng ~node:router table;
  let a =
    Fluid.add_aggregate eng ~origin:s1 ~src_base:s1.Node.addr ~n:1 ~rate:15e6
      ~dst:dst.Node.addr ~attack:true ~start:0.
  in
  let b =
    Fluid.add_aggregate eng ~origin:s2 ~src_base:s2.Node.addr ~n:1 ~rate:5e6
      ~dst:dst.Node.addr ~attack:false ~start:0.
  in
  (* At t = 2 block the attack flow at the router; the legit aggregate
     should recover the whole bottleneck. *)
  ignore
    (Sim.at sim 2. (fun () ->
         ignore
           (Filter_table.install table
              (Flow_label.host_pair s1.Node.addr dst.Node.addr)
              ~duration:1e6)));
  Sim.run ~until:10. sim;
  close "attack blocked" 0. (Fluid.delivered_rate a);
  close "legit unthrottled" 5e6 (Fluid.delivered_rate b);
  checki "one source blocked" 1 (Fluid.blocked_sources a);
  (* 2 s of 7.5 Mbit/s then 8 s of nothing. *)
  close ~tol:1e-3 "attack bits" 15e6 (delivered_bits sim Ledger.Attack);
  close ~tol:1e-3 "legit bits" (2. *. 2.5e6 +. 8. *. 5e6)
    (delivered_bits sim Ledger.Legit)

let test_filter_expiry_unblocks () =
  let sim = Sim.create () in
  let net, s1, _, dst = line_topo sim in
  let eng = Fluid.create net in
  let router = Option.get (Network.node_by_addr net (Addr.of_string "1.0.0.1")) in
  let table = Filter_table.create sim ~capacity:64 in
  Fluid.attach_table eng ~node:router table;
  let a =
    Fluid.add_aggregate eng ~origin:s1 ~src_base:s1.Node.addr ~n:1 ~rate:4e6
      ~dst:dst.Node.addr ~attack:true ~start:0.
  in
  ignore
    (Sim.at sim 1. (fun () ->
         ignore
           (Filter_table.install table
              (Flow_label.host_pair s1.Node.addr dst.Node.addr)
              ~duration:2.)));
  Sim.run ~until:10. sim;
  (* Blocked from 1 to 3, flowing otherwise: 8 s at 4 Mbit/s. *)
  close "flowing again" 4e6 (Fluid.delivered_rate a);
  checki "unblocked" 0 (Fluid.blocked_sources a);
  close ~tol:1e-3 "bits" 32e6 (delivered_bits sim Ledger.Attack)

let test_multi_source_range () =
  let sim = Sim.create () in
  let net, s1, _, dst = line_topo sim in
  let eng = Fluid.create net in
  let router = Option.get (Network.node_by_addr net (Addr.of_string "1.0.0.1")) in
  let table = Filter_table.create sim ~capacity:64 in
  Fluid.attach_table eng ~node:router table;
  (* 100 sources sharing 8 Mbit/s; block one /32 -> 99% remains. *)
  let a =
    Fluid.add_aggregate eng ~origin:s1 ~src_base:s1.Node.addr ~n:100 ~rate:8e6
      ~dst:dst.Node.addr ~attack:true ~start:0.
  in
  ignore
    (Sim.at sim 1. (fun () ->
         ignore
           (Filter_table.install table
              (Flow_label.host_pair
                 (Fluid.source_addr a 7)
                 dst.Node.addr)
              ~duration:1e6)));
  Sim.run ~until:2. sim;
  checki "one of 100 blocked" 1 (Fluid.blocked_sources a);
  close "99 sources' worth" (0.99 *. 8e6) (Fluid.delivered_rate a);
  (* A prefix filter covering the whole range kills the rest. *)
  ignore
    (Filter_table.install table
       (Flow_label.v
          (Flow_label.Net (Addr.prefix s1.Node.addr 8))
          (Flow_label.Host dst.Node.addr))
       ~duration:1e6)
  |> ignore;
  Sim.run ~until:3. sim;
  close "prefix blocks all" 0. (Fluid.delivered_rate a);
  checki "all blocked" 100 (Fluid.blocked_sources a)

(* 64 sources at 2.0.0.0..63 behind one router table, aggregate active. *)
let range_setup ?defer ?(n = 64) ?(rate = 6.4e6) () =
  let sim = Sim.create () in
  let net, s1, _, dst = line_topo sim in
  let eng = Fluid.create net in
  let router = Option.get (Network.node_by_addr net (Addr.of_string "1.0.0.1")) in
  let table = Filter_table.create sim ~capacity:64 in
  Fluid.attach_table ?defer eng ~node:router table;
  let a =
    Fluid.add_aggregate eng ~origin:s1 ~src_base:(Addr.of_string "2.0.0.0") ~n
      ~rate ~dst:dst.Node.addr ~attack:true ~start:0.
  in
  Sim.run ~until:1. sim;
  (sim, eng, table, a, dst.Node.addr)

(* A rate-limited /28 inside a blocking [Any -> victim] at the same stage:
   the /28 is more specific, so its 16 sources pass capped and the other
   48 die; removing it leaves the block over all 64. *)
let test_rate_limited_hole () =
  let n = 64 and rate = 6.4e6 in
  let sim, eng, table, a, victim = range_setup ~n ~rate () in
  let per_src = rate /. float_of_int n in
  let cap_bytes = 5000. in
  let install ?rate_limit label =
    match Filter_table.install ?rate_limit table label ~duration:1e6 with
    | Ok h -> h
    | Error `Table_full -> Alcotest.fail "table full"
  in
  ignore (install (Flow_label.v Flow_label.Any (Flow_label.Host victim)));
  let hole =
    install ~rate_limit:cap_bytes
      (Flow_label.v
         (Flow_label.Net (Addr.prefix_of_string "2.0.0.16/28"))
         (Flow_label.Host victim))
  in
  checki "all but the /28 blocked" (n - 16) (Fluid.blocked_sources a);
  Fluid.recompute eng;
  close "16 capped sources delivered"
    (16. *. Float.min (cap_bytes *. 8.) per_src)
    (Fluid.delivered_rate a);
  (* One second on, the ledger splits the undelivered second: the capped
     sources' excess is rate-limited, the other 48 are filtered. *)
  Sim.run ~until:2. sim;
  let ledger = Ledger.of_sim sim in
  let fluid fate = Ledger.fluid_bytes ledger Ledger.Attack fate in
  close "offered" (rate *. 2. /. 8.) (Ledger.offered_bytes ledger Ledger.Attack);
  close "delivered" ((rate +. (16. *. cap_bytes *. 8.)) /. 8.)
    (fluid Ledger.Delivered);
  close "rate-limited" (16. *. (per_src -. (cap_bytes *. 8.)) /. 8.)
    (fluid Ledger.Rate_limited);
  close "filtered" (48. *. per_src /. 8.) (fluid Ledger.Aitf_filter);
  checkb "conserved" true (Ledger.check ledger = Ok ());
  Filter_table.remove table hole;
  checki "all blocked once the /28 goes" n (Fluid.blocked_sources a);
  Fluid.recompute eng;
  close "nothing delivered" 0. (Fluid.delivered_rate a)

(* The mirror classifies ranges against the table; it builds no packet, so
   it takes no packet id however many sources a filter covers. *)
let test_mirror_mints_no_ids () =
  let _, _, table, a, victim = range_setup ~n:1000 ~rate:8e6 () in
  let mint () =
    (Packet.make ~src:(Addr.of_string "9.9.9.9") ~dst:victim ~size:40
       (Packet.Data { flow_id = 0; attack = false }))
      .Packet.id
  in
  let before = mint () in
  ignore
    (Filter_table.install table
       (Flow_label.v
          (Flow_label.Net (Addr.prefix_of_string "2.0.0.0/22"))
          (Flow_label.Host victim))
       ~duration:1e6);
  checki "all 1000 mirrored" 1000 (Fluid.blocked_sources a);
  checki "consecutive ids" (before + 1) (mint ())

(* The two ways a table reaches the mirror: directly, or through a [~defer]
   that queues each update until [settle] — as a sharded run queues them
   until the barrier, where they replay after every change of the window. *)
let mirror_modes =
  let deferred () =
    let q = Queue.create () in
    let settle () =
      Queue.iter (fun f -> f ()) q;
      Queue.clear q
    in
    (Some (fun f -> Queue.add f q), settle)
  in
  [ ("direct", fun () -> (None, ignore)); ("deferred", deferred) ]

let each_mirror_mode f =
  List.iter (fun (mode, make) -> f mode (make ())) mirror_modes

let slash28 victim =
  Flow_label.v
    (Flow_label.Net (Addr.prefix_of_string "2.0.0.16/28"))
    (Flow_label.Host victim)

(* A refresh that keeps the action (no rate, or the same rate) leaves the
   mirror as it was. Deferred, the refresh follows the install in the same
   window, so whether to skip must come with each change, not be read off
   the table when the queue replays. *)
let test_same_action_refresh () =
  let n = 64 and rate = 6.4e6 in
  let per_src = rate /. float_of_int n in
  each_mirror_mode (fun mode (defer, settle) ->
      let _, eng, table, a, victim = range_setup ?defer ~n ~rate () in
      let install ?rate_limit label =
        ignore (Filter_table.install ?rate_limit table label ~duration:1e6)
      in
      let cap_bytes = 5000. in
      let capped =
        Flow_label.v
          (Flow_label.Net (Addr.prefix_of_string "2.0.0.32/28"))
          (Flow_label.Host victim)
      in
      install (slash28 victim);
      install ~rate_limit:cap_bytes capped;
      install (slash28 victim);
      install ~rate_limit:cap_bytes capped;
      install capped;
      settle ();
      let expect = (32. *. per_src) +. (16. *. cap_bytes *. 8.) in
      checki (mode ^ ": the /28 blocked") 16 (Fluid.blocked_sources a);
      Fluid.recompute eng;
      close (mode ^ ": delivered") expect (Fluid.delivered_rate a);
      install (slash28 victim);
      install ~rate_limit:cap_bytes capped;
      settle ();
      checki (mode ^ ": still the /28") 16 (Fluid.blocked_sources a);
      Fluid.recompute eng;
      close (mode ^ ": delivered unchanged") expect (Fluid.delivered_rate a))

(* A refresh that turns a block into a rate-limit is an install to the
   mirror: the /28's sources pass, capped — also when a same-rate refresh
   follows it in the same deferred window. *)
let test_block_to_rate_limit_refresh () =
  let n = 64 and rate = 6.4e6 in
  let per_src = rate /. float_of_int n in
  let cap_bytes = 5000. in
  each_mirror_mode (fun mode (defer, settle) ->
      let _, eng, table, a, victim = range_setup ?defer ~n ~rate () in
      let install ?rate_limit () =
        ignore
          (Filter_table.install ?rate_limit table (slash28 victim)
             ~duration:1e6)
      in
      install ();
      settle ();
      checki (mode ^ ": blocked") 16 (Fluid.blocked_sources a);
      install ~rate_limit:cap_bytes ();
      install ~rate_limit:cap_bytes ();
      settle ();
      checki (mode ^ ": none blocked") 0 (Fluid.blocked_sources a);
      Fluid.recompute eng;
      close (mode ^ ": 16 capped")
        ((48. *. per_src) +. (16. *. Float.min (cap_bytes *. 8.) per_src))
        (Fluid.delivered_rate a))

(* Filters already in a table when the mirror learns of it count: both a
   table attached after its filters and an aggregate added after a table's
   filters start in sync. *)
let test_filters_before_attach () =
  let sim = Sim.create () in
  let net, s1, _, dst = line_topo sim in
  let eng = Fluid.create net in
  let router = Option.get (Network.node_by_addr net (Addr.of_string "1.0.0.1")) in
  let table = Filter_table.create sim ~capacity:4 in
  ignore (Filter_table.install table (slash28 dst.Node.addr) ~duration:1e6);
  let add () =
    Fluid.add_aggregate eng ~origin:s1 ~src_base:(Addr.of_string "2.0.0.0")
      ~n:64 ~rate:6.4e6 ~dst:dst.Node.addr ~attack:true ~start:0.
  in
  let before = add () in
  Fluid.attach_table eng ~node:router table;
  checki "attached after the filter" 16 (Fluid.blocked_sources before);
  let after = add () in
  checki "added after the filter" 16 (Fluid.blocked_sources after);
  Sim.run ~until:1. sim;
  close "48 sources each" (2. *. 48. *. 1e5)
    (Fluid.delivered_rate before +. Fluid.delivered_rate after)

(* Source addresses are unsigned: a range must end by 255.255.255.255. *)
let test_wrapping_range_rejected () =
  let sim = Sim.create () in
  let net, s1, _, dst = line_topo sim in
  let eng = Fluid.create net in
  let add n =
    Fluid.add_aggregate eng ~origin:s1
      ~src_base:(Addr.of_string "255.255.255.250")
      ~n ~rate:1e6 ~dst:dst.Node.addr ~attack:true ~start:0.
  in
  let a = add 6 in
  checkb "ends at the last address" true
    (Addr.equal (Fluid.source_addr a 5) (Addr.of_string "255.255.255.255"));
  Alcotest.check_raises "one past the end"
    (Invalid_argument
       "Fluid.add_aggregate: source range runs past 255.255.255.255")
    (fun () -> ignore (add 7))

let test_sampler_probes () =
  let sim = Sim.create () in
  let net, s1, _, dst = line_topo sim in
  let eng = Fluid.create net in
  let a =
    Fluid.add_aggregate eng ~origin:s1 ~src_base:s1.Node.addr ~n:50 ~rate:8e6
      ~dst:dst.Node.addr ~attack:true ~start:0.
  in
  let received = ref 0 in
  dst.Node.local_deliver <- (fun _ _ -> incr received);
  let s = Sampler.attach ~rate:20. ~rng:(Rng.create ~seed:7) eng a in
  Sim.run ~until:5. sim;
  (* ~20 probes/s for 5 s, modulo the randomised first tick. *)
  checkb "probes sent" true (Sampler.sent s >= 90 && Sampler.sent s <= 101);
  checkb "probes delivered" true (!received >= 90);
  checkb "gap" true (abs_float (Sampler.probe_gap s -. 0.05) < 1e-9)

(* The packet and hybrid engines must agree on the chain scenario within
   the E17 tolerance (10%); here a fast smoke version of that bench. *)
let test_engine_agreement () =
  let cfg =
    { (Config.with_timescale Config.default 0.1) with Config.grace = 0.3 }
  in
  let base =
    {
      Scenarios.default_chain with
      Scenarios.config = cfg;
      duration = 15.;
      attack_rate = 20e6;
      legit_rate = 1e6;
    }
  in
  let packet = Scenarios.run_chain base in
  let hybrid =
    Scenarios.run_chain
      {
        base with
        Scenarios.config = { cfg with Config.engine = Config.Hybrid };
      }
  in
  checkb "hybrid ran fluid" true (hybrid.Scenarios.fluid <> None);
  checkb "packet ran without fluid" true (packet.Scenarios.fluid = None);
  let rel a b = abs_float (a -. b) /. Float.max 1. (abs_float a) in
  checkb "goodput within 10%" true
    (rel packet.Scenarios.good_received_bytes
       hybrid.Scenarios.good_received_bytes
    <= 0.10);
  let tts r =
    match Scenarios.time_to_suppress r ~threshold:0.05 with
    | Some t -> t
    | None -> base.Scenarios.duration
  in
  checkb "time-to-filter within 10%" true
    (rel (tts packet) (tts hybrid) <= 0.10);
  checkb "hybrid needs fewer events" true
    (hybrid.Scenarios.events_processed < packet.Scenarios.events_processed)

(* Same seed, same hybrid run: results must be bit-identical. *)
let test_hybrid_determinism () =
  let cfg =
    {
      (Config.with_timescale Config.default 0.1) with
      Config.grace = 0.3;
      engine = Config.Hybrid;
    }
  in
  let params =
    {
      Scenarios.default_chain with
      Scenarios.config = cfg;
      duration = 12.;
      attack_rate = 20e6;
      legit_rate = 1e6;
      attacker_strategy = Aitf_core.Policy.On_off { off_time = 1.5 };
    }
  in
  let r1 = Scenarios.run_chain params in
  let r2 = Scenarios.run_chain params in
  checkb "byte counts identical" true
    (r1.Scenarios.attack_received_bytes = r2.Scenarios.attack_received_bytes
    && r1.Scenarios.good_received_bytes = r2.Scenarios.good_received_bytes);
  checkb "event counts identical" true
    (r1.Scenarios.events_processed = r2.Scenarios.events_processed);
  checkb "victim series identical" true
    (Aitf_stats.Series.points r1.Scenarios.victim_rate
    = Aitf_stats.Series.points r2.Scenarios.victim_rate)

(* The swarm scenario: spoofed pools, ground-truth suppression, absorbed
   requests. Small population so it stays fast under alcotest. *)
let test_swarm_runs () =
  let cfg =
    {
      (Config.with_timescale Config.default 0.1) with
      Config.grace = 0.3;
      engine = Config.Hybrid;
      overload_manager = true;
      aggregate_on_pressure = true;
      filter_capacity = 128;
    }
  in
  let r =
    Scenarios.run_swarm
      {
        Scenarios.default_swarm with
        Scenarios.swarm_config = cfg;
        swarm_sources = 5000;
        swarm_pools = 4;
        swarm_duration = 15.;
      }
  in
  (* 5000 attacking sources plus the one-source legit aggregate. *)
  checki "all sources materialised" 5001
    (Fluid.total_sources r.Scenarios.swarm_fluid);
  checkb "victim asked for filters" true (r.Scenarios.swarm_requests_sent > 0);
  checkb "filters installed" true (r.Scenarios.swarm_filters > 0);
  checkb "attack partially suppressed" true
    (r.Scenarios.swarm_attack_received_bytes
    < 20e6 *. 14. /. 8. *. 0.9)

(* The fluid plane conserves its bytes within [Ledger.fluid_epsilon] of
   what it offers; the bound is pinned here, on a run that gates, filters
   and loses traffic. *)
let test_ledger_fluid_epsilon () =
  Alcotest.check (Alcotest.float 0.) "stated bound" 1e-9 Ledger.fluid_epsilon;
  let r =
    Scenarios.run_swarm
      {
        Scenarios.default_swarm with
        Scenarios.swarm_sources = 512;
        swarm_pools = 2;
        swarm_duration = 10.;
      }
  in
  let ledger =
    Ledger.of_sim
      (Network.sim
         r.Scenarios.swarm_deployed.Aitf_topo.Chain.topo.Aitf_topo.Chain.net)
  in
  (match Ledger.check ledger with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let p = r.Scenarios.swarm_params in
  close ~tol:1e-9 "attack offered is the analytic integral"
    (p.Scenarios.swarm_attack_rate
    *. (p.Scenarios.swarm_duration -. p.Scenarios.swarm_attack_start)
    /. 8.)
    (Ledger.offered_bytes ledger Ledger.Attack);
  List.iter
    (fun fate ->
      checkb (Ledger.fate_name fate) true
        (Ledger.fluid_bytes ledger Ledger.Attack fate > 0.))
    [ Ledger.Delivered; Ledger.Aitf_filter; Ledger.Queue_overflow ];
  close ~tol:0. "delivered is the outcome" r.Scenarios.swarm_attack_received_bytes
    (Ledger.fluid_bytes ledger Ledger.Attack Ledger.Delivered)

let test_traffic_halt_cancels () =
  let sim = Sim.create () in
  let net, s1, _, dst = line_topo sim in
  let t =
    Traffic.cbr ~flow_id:1 ~rate:8e5 ~dst:dst.Node.addr net s1
  in
  Sim.run ~until:1.0 sim;
  let sent = Traffic.sent_packets t in
  checkb "was sending" true (sent > 0);
  Traffic.halt t;
  (* No pending emission survives: the event queue drains without another
     packet. *)
  Sim.run sim;
  checki "nothing after halt" sent (Traffic.sent_packets t)

let () =
  Alcotest.run "aitf_flowsim"
    [
      ( "fluid",
        [
          Alcotest.test_case "proportional shares" `Quick
            test_proportional_share;
          Alcotest.test_case "filter mirroring" `Quick test_filter_mirroring;
          Alcotest.test_case "expiry unblocks" `Quick
            test_filter_expiry_unblocks;
          Alcotest.test_case "multi-source ranges" `Quick
            test_multi_source_range;
          Alcotest.test_case "rate-limited hole in a block" `Quick
            test_rate_limited_hole;
          Alcotest.test_case "mirror mints no packet ids" `Quick
            test_mirror_mints_no_ids;
          Alcotest.test_case "same-action refresh" `Quick
            test_same_action_refresh;
          Alcotest.test_case "block to rate-limit refresh" `Quick
            test_block_to_rate_limit_refresh;
          Alcotest.test_case "filters before attach" `Quick
            test_filters_before_attach;
          Alcotest.test_case "wrapping range rejected" `Quick
            test_wrapping_range_rejected;
          Alcotest.test_case "sampler probes" `Quick test_sampler_probes;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "engine agreement" `Slow test_engine_agreement;
          Alcotest.test_case "determinism" `Slow test_hybrid_determinism;
          Alcotest.test_case "swarm scenario" `Slow test_swarm_runs;
          Alcotest.test_case "ledger within fluid epsilon" `Slow
            test_ledger_fluid_epsilon;
        ] );
      ( "workload",
        [
          Alcotest.test_case "halt cancels pending" `Quick
            test_traffic_halt_cancels;
        ] );
    ]
