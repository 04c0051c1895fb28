(* Tests for aitf_topo: the Figure-1 chain and the provider hierarchy. *)

module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
open Aitf_net
open Aitf_topo
open Aitf_core

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let deliver_count sim net ~src ~dst =
  let n = ref 0 in
  let prev = dst.Node.local_deliver in
  dst.Node.local_deliver <-
    (fun node pkt ->
      incr n;
      prev node pkt);
  Network.originate net src
    (Packet.make ~src:src.Node.addr ~dst:dst.Node.addr ~size:100
       (Packet.Data { flow_id = 0; attack = false }));
  Sim.run sim;
  !n

(* --- Chain ------------------------------------------------------------------ *)

let test_chain_structure () =
  let sim = Sim.create () in
  let t = Chain.build sim Chain.default_spec in
  checki "three gateways each side" 3 (List.length t.Chain.victim_gws);
  checki "attacker side" 3 (List.length t.Chain.attacker_gws);
  (* 2 hosts + 6 gateways + bystander *)
  checki "node count" 9 (List.length (Network.nodes t.Chain.net));
  List.iter
    (fun gw -> checkb "gateways are border routers" true (Node.is_border gw))
    (t.Chain.victim_gws @ t.Chain.attacker_gws)

let test_chain_reachability () =
  let sim = Sim.create () in
  let t = Chain.build sim Chain.default_spec in
  checki "attacker -> victim" 1
    (deliver_count sim t.Chain.net ~src:t.Chain.attacker ~dst:t.Chain.victim)

let test_chain_reverse_reachability () =
  let sim = Sim.create () in
  let t = Chain.build sim Chain.default_spec in
  checki "victim -> attacker" 1
    (deliver_count sim t.Chain.net ~src:t.Chain.victim ~dst:t.Chain.attacker)

let test_chain_bystander_reachability () =
  let sim = Sim.create () in
  let t = Chain.build sim Chain.default_spec in
  checki "bystander -> victim" 1
    (deliver_count sim t.Chain.net ~src:t.Chain.bystander ~dst:t.Chain.victim)

let test_chain_depth_one () =
  let sim = Sim.create () in
  let t = Chain.build sim { Chain.default_spec with Chain.depth = 1 } in
  checki "one gateway" 1 (List.length t.Chain.victim_gws);
  checki "attacker -> victim" 1
    (deliver_count sim t.Chain.net ~src:t.Chain.attacker ~dst:t.Chain.victim)

let test_chain_depth_validation () =
  let sim = Sim.create () in
  checkb "depth 0 rejected" true
    (try
       ignore (Chain.build sim { Chain.default_spec with Chain.depth = 0 });
       false
     with Invalid_argument _ -> true)

let test_chain_route_record_path () =
  (* Attack packets arriving at the victim after deployment must carry the
     full gateway path, attacker side first. *)
  let sim = Sim.create () in
  let t = Chain.build sim Chain.default_spec in
  let rng = Rng.create ~seed:1 in
  let (_ : Chain.deployed) = Chain.deploy ~config:Config.default ~rng t in
  let path = ref [] in
  let prev = t.Chain.victim.Node.local_deliver in
  t.Chain.victim.Node.local_deliver <-
    (fun node pkt ->
      if !path = [] then path := Packet.recorded_route pkt;
      prev node pkt);
  Network.originate t.Chain.net t.Chain.attacker
    (Packet.make ~src:t.Chain.attacker.Node.addr ~dst:t.Chain.victim.Node.addr
       ~size:100
       (Packet.Data { flow_id = 0; attack = false }));
  Sim.run sim;
  let names =
    List.filter_map
      (fun a ->
        Option.map (fun (n : Node.t) -> n.Node.name)
          (Network.node_by_addr t.Chain.net a))
      !path
  in
  check (Alcotest.list Alcotest.string) "attacker-first"
    [ "B_gw1"; "B_gw2"; "B_gw3"; "G_gw3"; "G_gw2"; "G_gw1" ]
    names

let test_chain_non_cooperating_helper () =
  checki "three" 3 (List.length (Chain.non_cooperating 3));
  checkb "all unresponsive" true
    (List.for_all (( = ) Policy.Unresponsive) (Chain.non_cooperating 3))

let test_chain_deploy_wiring () =
  let sim = Sim.create () in
  let t = Chain.build sim Chain.default_spec in
  let rng = Rng.create ~seed:1 in
  let d =
    Chain.deploy ~attacker_gw_policies:(Chain.non_cooperating 2)
      ~config:Config.default ~rng t
  in
  checki "gateways deployed" 3 (List.length d.Chain.victim_gateways);
  checkb "policy applied" true
    (Gateway.policy (List.hd d.Chain.attacker_gateways) = Policy.Unresponsive);
  checkb "third cooperative" true
    (Gateway.policy (List.nth d.Chain.attacker_gateways 2) = Policy.Cooperative)

(* --- Hierarchy ---------------------------------------------------------------- *)

let small_spec =
  { Hierarchy.default_spec with Hierarchy.isps = 2; nets_per_isp = 3; hosts_per_net = 2 }

let test_hierarchy_structure () =
  let sim = Sim.create () in
  let t = Hierarchy.build sim small_spec in
  checki "isps" 2 (Array.length t.Hierarchy.isp_gws);
  checki "nets" 3 (Array.length t.Hierarchy.net_gws.(0));
  checki "hosts" 2 (Array.length t.Hierarchy.hosts.(0).(0));
  (* 1 core + 2 isp + 6 net gws + 12 hosts = 21 *)
  checki "node count" 21 (List.length (Network.nodes t.Hierarchy.net))

let test_hierarchy_cross_isp_reachability () =
  let sim = Sim.create () in
  let t = Hierarchy.build sim small_spec in
  let a = Hierarchy.host t ~isp:0 ~net:0 ~host:0 in
  let b = Hierarchy.host t ~isp:1 ~net:2 ~host:1 in
  checki "a -> b across ISPs" 1 (deliver_count sim t.Hierarchy.net ~src:a ~dst:b)

let test_hierarchy_same_net_reachability () =
  let sim = Sim.create () in
  let t = Hierarchy.build sim small_spec in
  let a = Hierarchy.host t ~isp:0 ~net:1 ~host:0 in
  let b = Hierarchy.host t ~isp:0 ~net:1 ~host:1 in
  checki "same-net siblings" 1 (deliver_count sim t.Hierarchy.net ~src:a ~dst:b)

let test_hierarchy_fib_aggregation () =
  (* Host /32s are AS-local: a host in another ISP must carry no /32 route
     for them, only the /16 aggregates. *)
  let sim = Sim.create () in
  let t = Hierarchy.build sim small_spec in
  let a = Hierarchy.host t ~isp:0 ~net:0 ~host:0 in
  let b = Hierarchy.host t ~isp:1 ~net:0 ~host:0 in
  checkb "no remote host route" true
    (Lpm.exact a.Node.fib (Addr.host_prefix b.Node.addr) = None);
  (* FIB stays small: aggregates + local hosts, far below total node count. *)
  checkb "fib small" true (Lpm.size a.Node.fib < 20)

let test_hierarchy_prefixes () =
  let p = Hierarchy.net_prefix ~isp:1 ~net:2 in
  checkb "host inside" true
    (Addr.prefix_mem p (Addr.of_octets 11 2 0 10));
  checkb "other net outside" true
    (not (Addr.prefix_mem p (Addr.of_octets 11 3 0 10)));
  let ip = Hierarchy.isp_prefix ~isp:1 in
  checkb "net inside isp" true (Addr.prefix_mem ip (Addr.of_octets 11 2 0 10))

let test_hierarchy_validation () =
  let sim = Sim.create () in
  checkb "zero dims rejected" true
    (try
       ignore (Hierarchy.build sim { small_spec with Hierarchy.isps = 0 });
       false
     with Invalid_argument _ -> true)

let test_hierarchy_deploy_and_protocol () =
  (* One zombie in isp1/net0 attacks a victim in isp0/net0: the zombie's own
     enterprise gateway must end up holding the long filter. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:3 in
  let t = Hierarchy.build sim small_spec in
  let config =
    {
      (Config.with_timescale Config.default 0.1) with
      Config.t_tmp = 0.5;
      grace = 0.3;
    }
  in
  let d = Hierarchy.deploy ~config ~rng t in
  let victim = Hierarchy.attach_victim ~td:0.05 d ~config ~isp:0 ~net:0 ~host:0 in
  let attacker =
    Hierarchy.attach_attacker ~strategy:Policy.Ignores d ~config ~isp:1 ~net:0
      ~host:0
  in
  let (_ : Aitf_workload.Traffic.t) =
    Aitf_workload.Traffic.cbr
      ~gate:(Host_agent.Attacker.gate attacker)
      ~start:0.5 ~attack:true ~flow_id:1 ~rate:4e5
      ~dst:(Hierarchy.host t ~isp:0 ~net:0 ~host:0).Node.addr
      t.Hierarchy.net
      (Hierarchy.host t ~isp:1 ~net:0 ~host:0)
  in
  Sim.run ~until:3.0 sim;
  checkb "victim requested" true (Host_agent.Victim.requests_sent victim >= 1);
  let zombie_gw = d.Hierarchy.net_gateways.(1).(0) in
  checkb "zombie's gateway filters" true
    (Gateway.count zombie_gw Gateway.Filter_long >= 1);
  (* Other enterprise gateways hold nothing. *)
  let other_gw = d.Hierarchy.net_gateways.(1).(1) in
  checki "bystander gateway idle" 0
    (Aitf_filter.Filter_table.occupancy (Gateway.filters other_gw))

let test_hierarchy_escalation_to_isp () =
  (* The zombie's enterprise gateway is rogue; the mechanism must climb to
     its ISP gateway, which blocks the flow instead. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:13 in
  let t = Hierarchy.build sim small_spec in
  let config =
    {
      (Config.with_timescale Config.default 0.1) with
      Config.t_tmp = 0.5;
      grace = 0.3;
    }
  in
  let d =
    Hierarchy.deploy
      ~policies:(fun ~isp ~net ->
        if isp = 1 && net = 0 then Policy.Unresponsive else Policy.Cooperative)
      ~config ~rng t
  in
  let victim = Hierarchy.attach_victim ~td:0.05 d ~config ~isp:0 ~net:0 ~host:0 in
  ignore victim;
  let attacker =
    Hierarchy.attach_attacker
      ~strategy:(Policy.On_off { off_time = config.Config.t_tmp +. 0.2 })
      d ~config ~isp:1 ~net:0 ~host:0
  in
  let (_ : Aitf_workload.Traffic.t) =
    Aitf_workload.Traffic.cbr
      ~gate:(Host_agent.Attacker.gate attacker)
      ~start:0.5 ~attack:true ~flow_id:1 ~rate:4e5
      ~dst:(Hierarchy.host t ~isp:0 ~net:0 ~host:0).Node.addr t.Hierarchy.net
      (Hierarchy.host t ~isp:1 ~net:0 ~host:0)
  in
  Sim.run ~until:4.0 sim;
  let rogue_gw = d.Hierarchy.net_gateways.(1).(0) in
  let isp_gw = d.Hierarchy.isp_gateways.(1) in
  checkb "rogue gateway ignored the request" true
    (Gateway.count rogue_gw Gateway.Ignored_unresponsive >= 1);
  checkb "ISP gateway took over" true
    (Gateway.count isp_gw Gateway.Filter_long >= 1);
  checkb "victim-side escalated" true
    (Gateway.count d.Hierarchy.net_gateways.(0).(0) Gateway.Escalated >= 1)

(* --- Random_net ---------------------------------------------------------------- *)

let random_spec =
  { Random_net.default_spec with Random_net.transits = 4; stubs = 10; hosts_per_stub = 2 }

let test_random_structure () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:5 in
  let t = Random_net.build sim rng random_spec in
  checki "transits" 4 (Array.length t.Random_net.transit_gws);
  checki "stubs" 10 (Array.length t.Random_net.stub_gws);
  Array.iter
    (fun p -> checkb "primary in range" true (p >= 0 && p < 4))
    t.Random_net.stub_primary

let test_random_deterministic () =
  let build seed =
    let sim = Sim.create () in
    let rng = Rng.create ~seed in
    let t = Random_net.build sim rng random_spec in
    ( Array.to_list t.Random_net.stub_primary,
      Array.to_list t.Random_net.stub_secondary,
      List.length (Network.links t.Random_net.net) )
  in
  checkb "same seed same topology" true (build 9 = build 9);
  checkb "different seeds differ" true (build 9 <> build 10)

let test_random_all_pairs_reachable () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:5 in
  let t = Random_net.build sim rng random_spec in
  (* Sample several cross-stub host pairs. *)
  let pairs = [ (0, 9); (3, 7); (5, 1); (9, 0); (2, 8) ] in
  List.iter
    (fun (a, b) ->
      let src = Random_net.host t ~stub:a ~host:0 in
      let dst = Random_net.host t ~stub:b ~host:1 in
      checki
        (Printf.sprintf "stub%d -> stub%d" a b)
        1
        (deliver_count sim t.Random_net.net ~src ~dst))
    pairs

let test_random_multihoming_survives_link_loss () =
  (* Find a multihomed stub, cut its primary uplink, recompute routes:
     still reachable via the secondary. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:12 in
  let t =
    Random_net.build sim rng
      { random_spec with Random_net.multihoming_p = 1.0 }
  in
  let stub = 0 in
  let gw = t.Random_net.stub_gws.(stub) in
  let primary = t.Random_net.transit_gws.(t.Random_net.stub_primary.(stub)) in
  checkb "cut primary" true
    (Network.disconnect_port t.Random_net.net gw ~peer_id:primary.Node.id);
  Network.compute_routes t.Random_net.net;
  let src = Random_net.host t ~stub:5 ~host:0 in
  let dst = Random_net.host t ~stub ~host:0 in
  checki "still reachable via secondary" 1
    (deliver_count sim t.Random_net.net ~src ~dst)

let test_random_deploy_protocol () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:3 in
  let t = Random_net.build sim rng random_spec in
  let config =
    {
      (Config.with_timescale Config.default 0.1) with
      Config.t_tmp = 0.5;
      grace = 0.3;
    }
  in
  let d = Random_net.deploy ~config ~rng t in
  let victim = Random_net.host t ~stub:0 ~host:0 in
  let (_ : Host_agent.Victim.t) =
    Random_net.attach_victim ~td:0.05 d ~config ~stub:0 ~host:0
  in
  let attacker_stub = 6 in
  let agent =
    Random_net.attach_attacker ~strategy:Policy.Ignores d ~config
      ~stub:attacker_stub ~host:0
  in
  let (_ : Aitf_workload.Traffic.t) =
    Aitf_workload.Traffic.cbr
      ~gate:(Host_agent.Attacker.gate agent)
      ~start:0.5 ~attack:true ~flow_id:1 ~rate:4e5 ~dst:victim.Node.addr
      t.Random_net.net
      (Random_net.host t ~stub:attacker_stub ~host:0)
  in
  Sim.run ~until:3.0 sim;
  checkb "blocked at the attacker's stub gateway" true
    (Gateway.count d.Random_net.stub_gateways.(attacker_stub)
       Gateway.Filter_long
    >= 1)

(* --- As_graph ---------------------------------------------------------------- *)

let as_spec = { As_graph.default_spec with As_graph.domains = 200 }

let test_as_structure () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let t = As_graph.build sim rng as_spec in
  checki "domains" 200 (As_graph.n_domains t);
  (* Tier-1s: no providers, mutually peered. *)
  for i = 0 to as_spec.As_graph.tier1 - 1 do
    checki "tier-1 has no providers" 0 (List.length (As_graph.providers t i));
    checki "tier-1 clique" (as_spec.As_graph.tier1 - 1)
      (List.length
         (List.filter (fun p -> p < as_spec.As_graph.tier1) (As_graph.peers t i)))
  done;
  (* Everyone below tier-1 is multihomed as specified. *)
  for d = as_spec.As_graph.tier1 to 199 do
    checki
      (Printf.sprintf "as%d multihomed" d)
      (Int.min as_spec.As_graph.multihome d)
      (List.length (As_graph.providers t d))
  done

let test_as_deterministic () =
  let fingerprint seed =
    let sim = Sim.create () in
    let rng = Rng.create ~seed in
    let t = As_graph.build sim rng as_spec in
    List.init (As_graph.n_domains t) (fun d ->
        (As_graph.providers t d, As_graph.peers t d))
  in
  checkb "same seed same graph" true (fingerprint 11 = fingerprint 11);
  checkb "different seeds differ" true (fingerprint 11 <> fingerprint 12)

let test_as_degree_distribution () =
  (* Power-law shape, not a regular mesh: a heavy hub exists while most
     domains keep the minimum degree. Deterministic for the fixed seed. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let t = As_graph.build sim rng as_spec in
  let degrees = List.init 200 (fun d -> As_graph.degree t d) in
  let max_deg = List.fold_left Int.max 0 degrees in
  let small = List.length (List.filter (fun g -> g <= 4) degrees) in
  checkb "hub emerges" true (max_deg >= 15);
  checkb "most domains stay small" true (small >= 120);
  (* Handshake: the sum of degrees is twice the edge count. *)
  let sum = List.fold_left ( + ) 0 degrees in
  checki "degree sum even" 0 (sum mod 2)

let test_as_valley_free_routes () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let t = As_graph.build sim rng as_spec in
  let pairs =
    [ (5, 199); (199, 5); (42, 137); (137, 42); (0, 150); (150, 0);
      (17, 18); (99, 100); (196, 3); (77, 191) ]
  in
  List.iter
    (fun (src, dst) ->
      match As_graph.route t ~src ~dst with
      | None -> Alcotest.failf "no route as%d -> as%d" src dst
      | Some path ->
        checkb
          (Printf.sprintf "as%d -> as%d valley-free" src dst)
          true
          (As_graph.valley_free t path))
    pairs

let test_as_valley_free_rejects_valleys () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let t = As_graph.build sim rng as_spec in
  (* A provider->customer step followed by customer->provider is a valley. *)
  let d =
    (* first non-tier-1 domain with a customer of its own *)
    let rec find d =
      if As_graph.is_stub t d || d < as_spec.As_graph.tier1 then find (d + 1)
      else d
    in
    find as_spec.As_graph.tier1
  in
  let c = List.hd (As_graph.customers t d) in
  let p = List.hd (As_graph.providers t d) in
  checkb "down-then-up rejected" false (As_graph.valley_free t [ p; d; c; d; p ]);
  checkb "down-then-up rejected (short)" false (As_graph.valley_free t [ d; c; d ])

let test_as_fib_aggregation () =
  (* Stub routers route the whole 200-domain Internet with a handful of
     explicit entries plus one default — BGP-style aggregation. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let t = As_graph.build sim rng as_spec in
  let stub =
    let rec find d = if As_graph.is_stub t d then d else find (d + 1) in
    find as_spec.As_graph.tier1
  in
  checkb "stub fib small" true (Lpm.size (As_graph.router t stub).Node.fib < 20)

let test_as_host_reachability () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:7 in
  let t = As_graph.build sim rng as_spec in
  let a = As_graph.attach_host t ~domain:150 in
  let b = As_graph.attach_host t ~domain:42 in
  checki "cross-domain delivery" 1
    (deliver_count sim (As_graph.net t) ~src:a ~dst:b);
  checki "reverse delivery" 1
    (deliver_count sim (As_graph.net t) ~src:b ~dst:a)

let test_as_deploy_protocol () =
  (* One attacker host in a far domain floods a victim host; vanilla AITF
     on the generated graph must end with the attacker's own domain
     gateway holding the long filter. *)
  let sim = Sim.create () in
  let rng = Rng.create ~seed:3 in
  let t = As_graph.build sim rng as_spec in
  let config =
    {
      (Config.with_timescale Config.default 0.1) with
      Config.t_tmp = 0.5;
      grace = 0.3;
    }
  in
  let victim = As_graph.attach_host t ~domain:150 in
  let attacker = As_graph.attach_host t ~domain:42 in
  let d = As_graph.deploy ~config ~rng t in
  let vagent =
    Host_agent.Victim.create ~td:0.05
      ~gateway:(As_graph.router t 150).Node.addr ~config (As_graph.net t)
      victim
  in
  let agent =
    Host_agent.Attacker.create ~strategy:Policy.Ignores ~config
      (As_graph.net t) attacker
  in
  let (_ : Aitf_workload.Traffic.t) =
    Aitf_workload.Traffic.cbr
      ~gate:(Host_agent.Attacker.gate agent)
      ~start:0.5 ~attack:true ~flow_id:1 ~rate:4e5 ~dst:victim.Node.addr
      (As_graph.net t) attacker
  in
  Sim.run ~until:3.0 sim;
  checkb "victim requested" true (Host_agent.Victim.requests_sent vagent >= 1);
  checkb "attacker's domain gateway filters" true
    (Gateway.count d.As_graph.gateways.(42) Gateway.Filter_long >= 1)

let () =
  Alcotest.run "aitf_topo"
    [
      ( "chain",
        [
          Alcotest.test_case "structure" `Quick test_chain_structure;
          Alcotest.test_case "reachability" `Quick test_chain_reachability;
          Alcotest.test_case "reverse reachability" `Quick
            test_chain_reverse_reachability;
          Alcotest.test_case "bystander" `Quick test_chain_bystander_reachability;
          Alcotest.test_case "depth 1" `Quick test_chain_depth_one;
          Alcotest.test_case "depth validation" `Quick
            test_chain_depth_validation;
          Alcotest.test_case "route record path" `Quick
            test_chain_route_record_path;
          Alcotest.test_case "non_cooperating" `Quick
            test_chain_non_cooperating_helper;
          Alcotest.test_case "deploy wiring" `Quick test_chain_deploy_wiring;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "structure" `Quick test_hierarchy_structure;
          Alcotest.test_case "cross-isp reachability" `Quick
            test_hierarchy_cross_isp_reachability;
          Alcotest.test_case "same-net reachability" `Quick
            test_hierarchy_same_net_reachability;
          Alcotest.test_case "fib aggregation" `Quick
            test_hierarchy_fib_aggregation;
          Alcotest.test_case "prefixes" `Quick test_hierarchy_prefixes;
          Alcotest.test_case "validation" `Quick test_hierarchy_validation;
          Alcotest.test_case "deploy + protocol" `Quick
            test_hierarchy_deploy_and_protocol;
          Alcotest.test_case "escalation to ISP" `Quick
            test_hierarchy_escalation_to_isp;
        ] );
      ( "random_net",
        [
          Alcotest.test_case "structure" `Quick test_random_structure;
          Alcotest.test_case "deterministic" `Quick test_random_deterministic;
          Alcotest.test_case "all pairs reachable" `Quick
            test_random_all_pairs_reachable;
          Alcotest.test_case "multihoming failover" `Quick
            test_random_multihoming_survives_link_loss;
          Alcotest.test_case "deploy + protocol" `Quick
            test_random_deploy_protocol;
        ] );
      ( "as_graph",
        [
          Alcotest.test_case "structure" `Quick test_as_structure;
          Alcotest.test_case "deterministic" `Quick test_as_deterministic;
          Alcotest.test_case "degree distribution" `Quick
            test_as_degree_distribution;
          Alcotest.test_case "valley-free routes" `Quick
            test_as_valley_free_routes;
          Alcotest.test_case "valley detector" `Quick
            test_as_valley_free_rejects_valleys;
          Alcotest.test_case "fib aggregation" `Quick test_as_fib_aggregation;
          Alcotest.test_case "host reachability" `Quick
            test_as_host_reachability;
          Alcotest.test_case "deploy + protocol" `Quick
            test_as_deploy_protocol;
        ] );
    ]
