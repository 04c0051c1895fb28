(* End-to-end integration tests: simulated dynamics vs the paper's model,
   cross-mechanism comparisons and determinism. *)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
open Aitf_net
open Aitf_core
open Aitf_topo
module Scenarios = Aitf_workload.Scenarios
module Traffic = Aitf_workload.Traffic
module Formulas = Aitf_model.Formulas

let check = Alcotest.check
let checkb = check Alcotest.bool
let checki = check Alcotest.int

(* T = 6 s config used throughout, with Ttmp above protocol RTT. *)
let cfg =
  {
    (Config.with_timescale Config.default 0.1) with
    Config.t_tmp = 0.5;
    grace = 0.3;
  }

let params =
  {
    Scenarios.default_chain with
    Scenarios.config = cfg;
    duration = 60.;
    td = 0.1;
  }

(* --- r vs the analytic model ---------------------------------------------- *)

let test_r_matches_model_shape () =
  let r = Scenarios.run_chain params in
  let model =
    Formulas.effective_bandwidth_ratio ~n:1 ~td:0.1 ~tr:0.05
      ~t_filter:cfg.Config.t_filter
  in
  (* The paper's r is a (pessimistic) upper bound on the per-cycle leak; the
     simulation must land in the same decade and below ~2x the bound. *)
  checkb "measured r close to model" true
    (r.Scenarios.r_measured > 0.2 *. model
    && r.Scenarios.r_measured < 2.0 *. model)

let test_r_decreases_with_t () =
  let run t_filter =
    let config = { cfg with Config.t_filter } in
    (Scenarios.run_chain { params with Scenarios.config = config }).r_measured
  in
  let r_short = run 3.0 in
  let r_long = run 12.0 in
  checkb "longer T suppresses more" true (r_long < r_short);
  (* Model says 4x; accept 2x-8x. *)
  checkb "ratio in range" true
    (r_short /. r_long > 2.0 && r_short /. r_long < 8.0)

let test_leak_windows_grow_with_noncooperation () =
  (* With k unresponsive gateways and an on-off attacker, each T-cycle needs
     k escalations; total escalations grow linearly with k. *)
  let run k =
    let r =
      Scenarios.run_chain
        {
          params with
          Scenarios.n_non_coop_gws = k;
          attacker_strategy = Policy.On_off { off_time = cfg.Config.t_tmp +. 0.2 };
          duration = 40.;
        }
    in
    r.Scenarios.escalations
  in
  let e0 = run 0 and e1 = run 1 and e2 = run 2 in
  checkb "cooperative path needs no escalation" true (e0 = 0);
  checkb "one level" true (e1 >= 1);
  checkb "monotone" true (e2 > e1)

let test_flow_actually_suppressed () =
  let r = Scenarios.run_chain params in
  (* In steady state the duty cycle of the flow is r; the last window must
     be silent (filter held at the attacker's gateway most of the time). *)
  (* Per 6 s cycle the leak is one detection+request window (~0.2 s). *)
  checkb "r below 3%" true (r.Scenarios.r_measured < 0.03)

(* --- AITF protects the tail circuit ----------------------------------------- *)

let congestion_setup ~with_aitf =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:21 in
  (* Thin 1 Mb/s victim tail so a 5 Mb/s attack congests it. *)
  let spec = { Chain.default_spec with Chain.tail_bw = 1e6; attacker_tail_bw = 1e7 } in
  let topo = Chain.build sim spec in
  let d =
    if with_aitf then
      Some (Chain.deploy ~victim_td:0.1 ~config:cfg ~rng topo)
    else None
  in
  (* Legit flow from the bystander; attack from B_host. *)
  let (_ : Traffic.t) =
    Traffic.cbr ~start:0. ~flow_id:2 ~rate:3e5 ~dst:topo.Chain.victim.Node.addr
      topo.Chain.net topo.Chain.bystander
  in
  let gate =
    match d with
    | Some d -> Host_agent.Attacker.gate d.Chain.attacker_agent
    | None -> fun _ -> true
  in
  let (_ : Traffic.t) =
    Traffic.cbr ~gate ~start:1. ~attack:true ~flow_id:1 ~rate:5e6
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in
  (* Count legit bytes delivered between t=10 and t=30 (steady state). *)
  let legit = ref 0. in
  let prev = topo.Chain.victim.Node.local_deliver in
  topo.Chain.victim.Node.local_deliver <-
    (fun node (pkt : Packet.t) ->
      (match pkt.Packet.payload with
      | Packet.Data { flow_id = 2; _ } when Sim.now sim > 10. ->
        legit := !legit +. float_of_int pkt.Packet.size
      | _ -> ());
      prev node pkt);
  Sim.run ~until:30. sim;
  !legit

let test_aitf_restores_legit_goodput () =
  let without = congestion_setup ~with_aitf:false in
  let with_aitf = congestion_setup ~with_aitf:true in
  (* 20 s at 300 kb/s = 750 kB offered. Without AITF the tail is swamped by
     a 5x overload; with AITF the attack is filtered and goodput recovers. *)
  checkb "attack crushes goodput without AITF" true
    (without < 0.5 *. with_aitf);
  checkb "aitf delivers most legit traffic" true (with_aitf > 600_000.)

(* --- Filtering stays at the edge (scaling claim) ----------------------------- *)

let test_filters_at_the_leaves () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:31 in
  let spec =
    { Hierarchy.default_spec with Hierarchy.isps = 3; nets_per_isp = 2; hosts_per_net = 3 }
  in
  let t = Hierarchy.build sim spec in
  let d = Hierarchy.deploy ~config:cfg ~rng t in
  let victim_node = Hierarchy.host t ~isp:0 ~net:0 ~host:0 in
  let (_ : Host_agent.Victim.t) =
    Hierarchy.attach_victim ~td:0.05 d ~config:cfg ~isp:0 ~net:0 ~host:0
  in
  (* Six zombies spread over the other two ISPs. *)
  let zombies =
    List.concat_map
      (fun isp ->
        List.concat_map
          (fun net -> [ (isp, net, 0); (isp, net, 1) ])
          [ 0; 1 ])
      [ 1; 2 ]
  in
  List.iter
    (fun (isp, net, host) ->
      let agent =
        Hierarchy.attach_attacker ~strategy:Policy.Ignores d ~config:cfg ~isp
          ~net ~host
      in
      ignore
        (Traffic.cbr
           ~gate:(Host_agent.Attacker.gate agent)
           ~start:0.5 ~attack:true
           ~flow_id:(100 + (isp * 10) + net + host)
           ~rate:3e5 ~dst:victim_node.Node.addr t.Hierarchy.net
           (Hierarchy.host t ~isp ~net ~host)))
    zombies;
  Sim.run ~until:4.0 sim;
  (* Every zombie's enterprise gateway holds exactly its zombies' filters;
     ISP gateways hold none (they were never needed). *)
  let leaf_filters = ref 0 in
  Array.iteri
    (fun isp row ->
      Array.iter
        (fun gw ->
          let n = Gateway.count gw Gateway.Filter_long in
          leaf_filters := !leaf_filters + n;
          if isp = 0 then checki "victim-side net gw holds none" 0 n)
        row)
    d.Hierarchy.net_gateways;
  checki "all 8 zombie flows filtered at the leaves" 8 !leaf_filters;
  Array.iter
    (fun gw ->
      checki "isp gateways hold no long filters" 0
        (Gateway.count gw Gateway.Filter_long))
    d.Hierarchy.isp_gateways

(* --- Pushback baseline comparison ------------------------------------------- *)

let test_aitf_beats_pushback_on_nodes_involved () =
  (* Same single-attacker chain; AITF involves 4 nodes, pushback recruits
     every router along the congested path. *)
  let run_aitf () =
    let r = Scenarios.run_chain { params with Scenarios.duration = 20. } in
    let gws_with_filters =
      List.length
        (List.filter
           (fun gw ->
             Aitf_filter.Filter_table.installs (Gateway.filters gw) > 0)
           (r.Scenarios.deployed.Chain.victim_gateways
           @ r.Scenarios.deployed.Chain.attacker_gateways))
    in
    gws_with_filters
  in
  let run_pushback () =
    let sim = Sim.create () in
    let spec = { Chain.default_spec with Chain.tail_bw = 1e6; attacker_tail_bw = 1e7 } in
    let topo = Chain.build sim spec in
    let routers = topo.Chain.victim_gws @ topo.Chain.attacker_gws in
    let pb = Aitf_pushback.Pushback.deploy topo.Chain.net routers in
    let (_ : Traffic.t) =
      Traffic.cbr ~start:1. ~attack:true ~flow_id:1 ~rate:5e6
        ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
    in
    Sim.run ~until:20. sim;
    Aitf_pushback.Pushback.routers_limiting pb
  in
  let aitf_nodes = run_aitf () in
  let pushback_nodes = run_pushback () in
  checkb "aitf touches at most 2 gateways" true (aitf_nodes <= 2);
  checkb "pushback recruits more routers" true (pushback_nodes > aitf_nodes)

(* --- Determinism -------------------------------------------------------------- *)

let test_full_run_deterministic () =
  let run () =
    let r = Scenarios.run_chain { params with Scenarios.duration = 15. } in
    ( r.Scenarios.attack_received_bytes,
      r.Scenarios.requests_sent,
      Scenarios.counter_total r.Scenarios.deployed.Chain.attacker_gateways
        Gateway.Filter_long )
  in
  checkb "identical runs" true (run () = run ())

let test_seed_changes_nothing_structural () =
  (* Different seeds perturb nonces, not protocol outcomes on this
     deterministic workload. *)
  let run seed =
    let r = Scenarios.run_chain { params with Scenarios.seed; duration = 15. } in
    r.Scenarios.requests_sent
  in
  checki "same requests" (run 1) (run 2)

(* --- Resource bounds (spot checks of IV-B/IV-C in vivo) ----------------------- *)

let test_resource_bounds_in_vivo () =
  let r = Scenarios.run_chain { params with Scenarios.duration = 30. } in
  let vgw = List.hd r.Scenarios.deployed.Chain.victim_gateways in
  let agw = List.hd r.Scenarios.deployed.Chain.attacker_gateways in
  (* Single flow: one temp filter at a time at the victim's gateway, one
     long filter at the attacker's. *)
  checki "victim gw peak 1" 1
    (Aitf_filter.Filter_table.peak_occupancy (Gateway.filters vgw));
  checki "attacker gw peak 1" 1
    (Aitf_filter.Filter_table.peak_occupancy (Gateway.filters agw));
  checkb "shadow peak 1" true (Gateway.shadow_peak vgw = 1)

(* --- Robustness: lossy control channel ----------------------------------------- *)

let test_lossy_control_channel_converges () =
  (* Half of all AITF protocol messages crossing the middle victim-side
     gateway are dropped; re-requests, the shadow cache and escalation must
     still strangle the flow. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:77 in
  let loss_rng = Rng.create ~seed:78 in
  let topo = Chain.build sim Chain.default_spec in
  let middle = List.nth topo.Chain.victim_gws 1 in
  Node.add_hook middle (fun _ (pkt : Packet.t) ->
      if
        pkt.Packet.proto = Message.protocol_number
        && Rng.bernoulli loss_rng ~p:0.5
      then Node.Drop Aitf_obs.Ledger.Fault_loss
      else Node.Continue);
  let d = Chain.deploy ~victim_td:0.05 ~config:cfg ~rng topo in
  let (_ : Traffic.t) =
    Traffic.cbr
      ~gate:(Host_agent.Attacker.gate d.Chain.attacker_agent)
      ~start:0.5 ~attack:true ~flow_id:1 ~rate:4e5
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in
  Sim.run ~until:30.0 sim;
  let received = Aitf_workload.Runner.delivered sim None ~attack:true in
  let offered = 4e5 *. 29.5 /. 8. in
  let lost = Node.drop_count middle Aitf_obs.Ledger.Fault_loss in
  checkb "messages were actually lost" true (lost > 0);
  checki "every loss is a control packet in the ledger" lost
    Aitf_obs.Ledger.(packets (of_sim sim) Control Fault_loss);
  checkb "flow still mostly suppressed" true (received /. offered < 0.25);
  checkb "protocol retried" true
    (Host_agent.Victim.requests_sent d.Chain.victim_agent >= 2)

(* --- Golden trace of the Figure-1 round --------------------------------------- *)

(* The F1 scenario: the Figure-1 chain with a complying attacker, one
   2 Mbit/s flood from t = 1 s, run to t = 5 s. *)
let figure1 () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:1 in
  let topo = Chain.build sim Chain.default_spec in
  let d =
    Chain.deploy ~attacker_strategy:Policy.Complies ~config:cfg ~rng topo
  in
  let (_ : Traffic.t) =
    Traffic.cbr
      ~gate:(Host_agent.Attacker.gate d.Chain.attacker_agent)
      ~start:1.0 ~attack:true ~flow_id:1 ~rate:2e6
      ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker
  in
  Sim.run ~until:5.0 sim;
  d

(* Round 1 as the span forest records it: one request, whose stages open
   at the victim, its gateway and B_gw1 in exactly this order. *)
let test_figure1_golden_trace () =
  let module Span = Aitf_obs.Span in
  let spans = Span.create () in
  Span.attach spans;
  ignore (Fun.protect ~finally:Span.detach figure1);
  let starts =
    List.concat_map
      (fun r ->
        List.map
          (fun (s : Span.span) -> (s.Span.node, Span.stage_name s.Span.stage))
          (Span.spans_of r))
      (Span.roots spans)
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "exact (node, stage) starts of round 1"
    [
      ("G_host", "detect");
      ("G_host", "request");
      ("G_gw1", "temp-filter");
      ("B_gw1", "verification");
      ("B_gw1", "permanent-filter");
      ("B_gw1", "counter-request");
    ]
    starts

(* The --stats gateway table's name=value column for F1, pinned string for
   string: the counter names are part of the CLI's output. *)
let test_figure1_gateway_counters () =
  let d = figure1 () in
  let table =
    Aitf_workload.Report.gateway_table
      (d.Chain.victim_gateways @ d.Chain.attacker_gateways)
  in
  check (Alcotest.list Alcotest.string) "counters column"
    [
      "filter-temp=1 req-propagated=1 req-victim-role=1";
      "";
      "";
      "filter-long=1 handshake-ok=1 req-attacker-role=1 req-to-attacker=1";
      "";
      "";
    ]
    (List.map (fun row -> List.nth row 5) (Aitf_stats.Table.rows table));
  let names = List.map Gateway.counter_name Gateway.all_counters in
  checki "every counter has its own name" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* The observability layer sees the same walk-through: with a registry
   attached, the F1 scenario must leave a populated time-to-filter
   histogram at the attacker's gateway — the handshake takes nonzero
   virtual time, so the samples are strictly positive. *)
let test_figure1_time_to_filter_observed () =
  let module Metrics = Aitf_obs.Metrics in
  let reg = Metrics.create () in
  Metrics.attach reg;
  Fun.protect ~finally:Metrics.detach (fun () ->
      let r = Scenarios.run_chain { params with Scenarios.duration = 20. } in
      ignore r;
      match Metrics.value reg "gateway.B_gw1.time_to_filter" with
      | Some (Metrics.Histogram { count; sum; _ }) ->
        checkb "installs observed" true (count > 0);
        checkb "handshake RTT is positive" true (sum > 0.)
      | _ -> Alcotest.fail "time_to_filter not registered")

(* An agent's decision set has distinct names, and with a registry
   attached each [<prefix>.<name c>] is a counter reading [count c]. *)
let check_counters reg ~prefix set =
  let module Counters = Aitf_obs.Counters in
  let module Metrics = Aitf_obs.Metrics in
  let names = List.map (Counters.name set) (Counters.all set) in
  checki (prefix ^ ": every counter has its own name") (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun c ->
      let name = prefix ^ "." ^ Counters.name set c in
      match Metrics.value reg name with
      | Some (Metrics.Counter v) -> checki name (Counters.count set c) (int_of_float v)
      | _ -> Alcotest.failf "%s not registered as a counter" name)
    (Counters.all set)

let with_registry f =
  let module Metrics = Aitf_obs.Metrics in
  let reg = Metrics.create () in
  Metrics.with_attached reg (fun () -> f reg)

(* Every decision counter is a metric under its own name: with a registry
   attached, a lossy on-off run against a non-cooperating gateway (which
   escalates, retransmits requests and handshakes) leaves
   [gateway.<node>.<counter_name c>] equal to [Gateway.count gw c] for
   every gateway and every counter, and the same holds for the victim,
   attacker, overload managers, adversary, fault injector and flapper,
   auditor and legacy proxy. *)
let test_counter_metrics_equal_counts () =
  let module Metrics = Aitf_obs.Metrics in
  with_registry (fun reg ->
      let r =
        Scenarios.run_chain
          {
            params with
            Scenarios.config = { cfg with Config.ctrl_retries = 3 };
            duration = 20.;
            n_non_coop_gws = 1;
            attacker_strategy = Policy.On_off { off_time = 1.0 };
            ctrl_faults = [ Aitf_fault.Fault.Loss 0.2 ];
          }
      in
      let d = r.Scenarios.deployed in
      let gws = d.Chain.victim_gateways @ d.Chain.attacker_gateways in
      List.iter
        (fun gw ->
          List.iter
            (fun c ->
              let name =
                Printf.sprintf "gateway.%s.%s" (Gateway.node gw).Node.name
                  (Gateway.counter_name c)
              in
              match Metrics.value reg name with
              | Some (Metrics.Counter v) ->
                checki name (Gateway.count gw c) (int_of_float v)
              | _ -> Alcotest.failf "%s not registered as a counter" name)
            Gateway.all_counters)
        gws;
      List.iter
        (fun c ->
          checkb
            (Gateway.counter_name c ^ " exercised")
            true
            (Scenarios.counter_total gws c > 0))
        Gateway.[ Escalated; Ctrl_retransmit; Handshake_retransmit ];
      let victim = d.Chain.victim_agent and attacker = d.Chain.attacker_agent in
      check_counters reg
        ~prefix:("victim." ^ (Host_agent.Victim.node victim).Node.name)
        (Host_agent.Victim.counters victim);
      check_counters reg
        ~prefix:("attacker." ^ (Host_agent.Attacker.node attacker).Node.name)
        (Host_agent.Attacker.counters attacker);
      checkb "victim retransmitted" true
        (Host_agent.Victim.(count victim Victim_retransmit) > 0);
      checkb "attacker stopped a flow" true
        (Host_agent.Attacker.(count attacker Flow_stopped) > 0));
  (* The overload manager and an adversary playbook, under slot pressure. *)
  with_registry (fun reg ->
      let r =
        Scenarios.run_chain
          {
            params with
            Scenarios.spec = { Chain.default_spec with Chain.depth = 1 };
            config =
              {
                cfg with
                Config.filter_capacity = 32;
                overload_manager = true;
                overload_low = 0.5;
              };
            duration = 10.;
            attack_rate = 2e7;
            adversaries =
              [
                Aitf_adversary.Adversary.Slot_exhaustion
                  { sources = 128; rate = 2e7 };
              ];
          }
      in
      let d = r.Scenarios.deployed in
      List.iter
        (fun gw ->
          match Gateway.overload gw with
          | Some m ->
            check_counters reg
              ~prefix:
                (Printf.sprintf "gateway.%s.overload" (Gateway.node gw).Node.name)
              (Aitf_filter.Overload.counters m)
          | None -> Alcotest.fail "overload manager missing")
        (d.Chain.victim_gateways @ d.Chain.attacker_gateways);
      checkb "manager aggregated" true (r.Scenarios.overload_aggregations > 0);
      List.iter
        (fun h ->
          let module Adversary = Aitf_adversary.Adversary in
          check_counters reg
            ~prefix:("adversary." ^ Adversary.kind (Adversary.playbook h))
            (Adversary.counters h);
          checkb "adversary sent packets" true
            (Adversary.count h Adversary.Packet_sent > 0))
        r.Scenarios.adversary_handles);
  (* Fault injector and flapper on one link, the auditor and a legacy
     proxy, each in a world created while the registry is attached. *)
  with_registry (fun reg ->
      let module Fault = Aitf_fault.Fault in
      let sim = Sim.create () in
      let link =
        Link.create sim ~name:"faulty" ~bandwidth:1e6 ~delay:0.01
          ~queue_capacity:1_000_000
      in
      Link.set_deliver link (fun _ -> ());
      let inj =
        Fault.inject ~rng:(Rng.create ~seed:4) sim link
          Fault.[ Loss 0.3; Jitter { max_jitter = 0.1 }; Duplicate 0.3 ]
      in
      let flapper = Fault.flap ~start:2.0 sim [ link ] ~period:3.0 ~down_for:1.0 in
      for _ = 1 to 50 do
        Link.send link
          (Packet.make ~src:(Addr.of_string "1.0.0.1")
             ~dst:(Addr.of_string "2.0.0.2") ~size:500
             (Packet.Data { flow_id = 0; attack = false }))
      done;
      let auditor =
        Aitf_contract.Auditor.create
          ~verify:(fun _ _ _ -> false)
          ~gateway:(Addr.of_string "10.0.0.1") ~on_flag:ignore sim
      in
      Aitf_contract.Auditor.on_receipt auditor
        {
          Message.rc_flow =
            Aitf_filter.Flow_label.host_pair (Addr.of_string "20.0.0.66")
              (Addr.of_string "10.0.0.10");
          rc_gateway = Addr.of_string "20.0.0.1";
          rc_victim = Addr.of_string "10.0.0.10";
          rc_seq = 1;
          rc_installed_at = 0.;
          rc_expires_at = 60.;
          rc_hits = 0;
          rc_auth = 0L;
        };
      Sim.run ~until:6.0 sim;
      check_counters reg ~prefix:"fault.faulty" (Fault.counters inj);
      checkb "injector dropped, delayed and copied" true
        (Fault.drops inj > 0
        && Fault.count inj Fault.Delayed > 0
        && Fault.count inj Fault.Duplicated > 0);
      (match Metrics.value reg "fault.faulty.fault-flap" with
      | Some (Metrics.Counter v) ->
        checki "fault.faulty.fault-flap" (Fault.flapper_count flapper Fault.Flap)
          (int_of_float v)
      | _ -> Alcotest.fail "fault.faulty.fault-flap not registered");
      check_counters reg ~prefix:"auditor"
        (Aitf_contract.Auditor.counters auditor);
      checki "receipt rejected" 1
        Aitf_contract.Auditor.(count auditor Receipt_rejected);
      let net = Network.create sim in
      let g_gw =
        Network.add_node net ~name:"g_gw" ~addr:(Addr.of_string "10.0.0.1")
          ~as_id:1 Node.Border_router
      in
      let gateway =
        Gateway.create ~clients:[ Addr.prefix_of_string "10.0.0.0/24" ]
          ~config:cfg ~rng:(Rng.create ~seed:5) net g_gw
      in
      let legacy =
        Legacy.attach ~protect:[ Addr.prefix_of_string "10.0.0.0/28" ] ~gateway
          net
      in
      check_counters reg ~prefix:"legacy.g_gw" (Legacy.counters legacy))

(* --- Protocol-safety fuzz ------------------------------------------------------ *)

(* Property (Section III-B): with the handshake enabled, no volley of forged
   filtering requests — whatever flows, requestors and timing the forger
   picks — ever installs a filter at the attacker's gateway, because the
   victim never confirms. *)
let forgery_never_installs =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 15)
        (list_size (int_range 1 15) (pair (int_bound 3) (int_bound 2))))
  in
  QCheck.Test.make ~name:"forged requests never install filters" ~count:25
    (QCheck.make gen)
    (fun (seed, volleys) ->
      let sim = Sim.create () in
      let rng = Rng.create ~seed in
      let topo = Chain.build sim Chain.default_spec in
      let m =
        Network.add_node topo.Chain.net ~name:"M"
          ~addr:(Addr.of_octets 20 0 0 99) ~as_id:101 Node.Host
      in
      ignore
        (Network.connect topo.Chain.net (List.hd topo.Chain.attacker_gws) m
           ~bandwidth:1e7 ~delay:0.01);
      Network.compute_routes topo.Chain.net;
      let d = Chain.deploy ~config:cfg ~rng topo in
      let b_gw1_node = List.hd topo.Chain.attacker_gws in
      (* A handful of legitimate flows exist; none is ever reported. *)
      ignore
        (Traffic.cbr ~start:0. ~flow_id:1 ~rate:2e5
           ~dst:topo.Chain.victim.Node.addr topo.Chain.net topo.Chain.attacker);
      let srcs =
        [| topo.Chain.attacker.Node.addr; topo.Chain.bystander.Node.addr;
           m.Node.addr; Addr.of_octets 20 0 0 50 |]
      in
      let dsts =
        [| topo.Chain.victim.Node.addr;
           (List.hd topo.Chain.victim_gws).Node.addr;
           Addr.of_octets 10 0 0 200 |]
      in
      List.iteri
        (fun i (si, di) ->
          let req =
            {
              Message.flow =
                Aitf_filter.Flow_label.host_pair srcs.(si) dsts.(di);
              target = Message.To_attacker_gateway;
              duration = cfg.Config.t_filter;
              path = [ b_gw1_node.Node.addr ];
              hops = 0;
              (* the forger may even spoof the requestor field *)
              requestor =
                (if i mod 2 = 0 then m.Node.addr
                 else (List.hd topo.Chain.victim_gws).Node.addr);
              corr = 0;
              auth = 0L;
            }
          in
          ignore
            (Sim.at sim
               (0.5 +. (0.3 *. float_of_int i))
               (fun () ->
                 Network.originate topo.Chain.net m
                   (Message.packet ~src:m.Node.addr ~dst:b_gw1_node.Node.addr
                      (Message.Filtering_request req)))))
        volleys;
      Sim.run ~until:10.0 sim;
      let b_gw1 = List.hd d.Chain.attacker_gateways in
      Aitf_filter.Filter_table.occupancy (Gateway.filters b_gw1) = 0
      && Aitf_workload.Runner.delivered sim None ~attack:false > 100_000.)

let () =
  Alcotest.run "aitf_integration"
    [
      ( "model",
        [
          Alcotest.test_case "r matches model" `Slow test_r_matches_model_shape;
          Alcotest.test_case "r vs T" `Slow test_r_decreases_with_t;
          Alcotest.test_case "escalations vs n" `Slow
            test_leak_windows_grow_with_noncooperation;
          Alcotest.test_case "suppression" `Slow test_flow_actually_suppressed;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "goodput restored" `Slow
            test_aitf_restores_legit_goodput;
          Alcotest.test_case "filters at leaves" `Slow test_filters_at_the_leaves;
          Alcotest.test_case "vs pushback" `Slow
            test_aitf_beats_pushback_on_nodes_involved;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "bitwise" `Slow test_full_run_deterministic;
          Alcotest.test_case "seed independence" `Slow
            test_seed_changes_nothing_structural;
        ] );
      ( "resources",
        [ Alcotest.test_case "in vivo bounds" `Slow test_resource_bounds_in_vivo ] );
      ( "robustness",
        [
          Alcotest.test_case "lossy control channel" `Slow
            test_lossy_control_channel_converges;
          Alcotest.test_case "figure-1 golden trace" `Quick
            test_figure1_golden_trace;
          Alcotest.test_case "figure-1 gateway counters" `Quick
            test_figure1_gateway_counters;
          Alcotest.test_case "figure-1 time-to-filter observed" `Slow
            test_figure1_time_to_filter_observed;
          Alcotest.test_case "counter metrics equal counts" `Slow
            test_counter_metrics_equal_counts;
        ] );
      ("fuzz", [ QCheck_alcotest.to_alcotest forgery_never_installs ]);
    ]
