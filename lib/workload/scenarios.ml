module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Series = Aitf_stats.Series
module Fluid = Aitf_flowsim.Fluid
open Aitf_net
open Aitf_core
open Aitf_topo

type chain_params = {
  spec : Chain.spec;
  config : Config.t;
  seed : int;
  duration : float;
  attack_rate : float;
  attack_start : float;
  legit_rate : float;
  n_non_coop_gws : int;
  attacker_strategy : Policy.attacker_response;
  td : float;
  path_source : Host_agent.path_source;
  traceback : [ `Path_in_request | `Spie | `Ppm ];
  sample_period : float;
  ctrl_faults : Aitf_fault.Fault.model list;
  tail_flap : (float * float) option;
  adversaries : Aitf_adversary.Adversary.playbook list;
  adversary_start : float;
  in_pool_legit_rate : float;
}

let default_chain =
  {
    spec = Chain.default_spec;
    config = Config.default;
    seed = 42;
    duration = 300.;
    attack_rate = 1e6;
    attack_start = 1.;
    legit_rate = 0.;
    n_non_coop_gws = 0;
    attacker_strategy = Policy.Ignores;
    td = 0.1;
    path_source = Host_agent.From_route_record;
    traceback = `Path_in_request;
    sample_period = 0.1;
    ctrl_faults = [];
    tail_flap = None;
    adversaries = [];
    adversary_start = 1.;
    in_pool_legit_rate = 0.;
  }

type chain_result = {
  params : chain_params;
  deployed : Chain.deployed;
  attack_offered_bytes : float;
  attack_received_bytes : float;
  r_measured : float;
  good_offered_bytes : float;
  good_received_bytes : float;
  victim_rate : Series.t;
  escalations : int;
  requests_sent : int;
  requests_retransmitted : int;
  ctrl_retransmits : int;
  ctrl_gave_up : int;
  faults_injected : int;
  adversary_handles : Aitf_adversary.Adversary.t list;
  overload_aggregations : int;
  overload_evictions : int;
  collateral_packets : int;
  collateral_bytes : int;
  sampler : Aitf_obs.Sampler.t option;
  fluid : Fluid.t option;
  events_processed : int;
}

let counter_total gws c =
  List.fold_left (fun acc gw -> acc + Gateway.count gw c) 0 gws

let run_chain params =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:params.seed in
  let topo = Chain.build sim params.spec in
  let config, path_source =
    match params.traceback with
    | `Path_in_request -> (params.config, params.path_source)
    | `Spie ->
      let spie = Aitf_traceback.Spie.deploy topo.Chain.net in
      ( { params.config with Config.traceback = Config.Spie_query spie },
        Host_agent.Gateway_traceback )
    | `Ppm ->
      let mark_rng = Rng.split rng in
      List.iter
        (fun gw -> Aitf_traceback.Ppm.install ~p:0.2 ~rng:mark_rng gw)
        (topo.Chain.victim_gws @ topo.Chain.attacker_gws);
      ( params.config,
        Host_agent.From_ppm (Aitf_traceback.Ppm.Collector.create ()) )
  in
  let deployed =
    Chain.deploy ~attacker_strategy:params.attacker_strategy
      ~attacker_gw_policies:(Chain.non_cooperating params.n_non_coop_gws)
      ~victim_td:params.td ~path_source ~config ~rng topo
  in
  (* Fault injection on the victim's tail circuit, the congested link every
     control message must cross: [ctrl_faults] hits control packets in both
     directions; [tail_flap] takes the whole circuit down on schedule. Only
     touch the RNG when faults are requested, so fault-free runs replay the
     exact pre-fault event sequence. *)
  let injectors =
    if params.ctrl_faults = [] then []
    else
      let fault_rng = Rng.split rng in
      List.map
        (fun link ->
          Aitf_fault.Fault.inject ~only:Aitf_fault.Fault.ctrl_only
            ~rng:fault_rng sim link params.ctrl_faults)
        [ topo.Chain.victim_tail_up; topo.Chain.victim_tail ]
  in
  (match params.tail_flap with
  | Some (period, down_for) ->
    ignore
      (Aitf_fault.Fault.flap sim
         [ topo.Chain.victim_tail; topo.Chain.victim_tail_up ]
         ~period ~down_for)
  | None -> ());
  (* Protocol-level adversaries. Everything here — the extra nodes, the
     RNG split, the playbooks themselves — happens only when playbooks were
     requested, so adversary-free runs replay the exact pre-adversary event
     sequence. *)
  let spoof_base = Addr.of_octets 20 66 0 0 in
  let adversary_handles, in_pool_client =
    if params.adversaries = [] then ([], None)
    else begin
      let adv_rng = Rng.split rng in
      let net = topo.Chain.net in
      let spec = params.spec in
      let attach gw name addr as_id =
        let n = Network.add_node net ~name ~addr ~as_id Node.Host in
        ignore
          (Network.connect net gw n ~bandwidth:spec.Chain.attacker_tail_bw
             ~delay:spec.Chain.access_delay
             ~queue_capacity:spec.Chain.queue_capacity);
        n
      in
      let g_gw1 = List.hd topo.Chain.victim_gws in
      let b_gw1 = List.hd topo.Chain.attacker_gws in
      (* A compromised client inside the victim's /24 cone, for the
         request-flood playbooks. *)
      let insider = attach g_gw1 "G_insider" (Addr.of_octets 10 0 0 99) 1 in
      (* A legitimate host whose address falls inside the spoofed-source
         pool: the bystander that prefix aggregation can hit — its lost
         traffic is what the collateral-damage estimate measures. *)
      let in_pool =
        if params.in_pool_legit_rate > 0. then
          Some (attach b_gw1 "B_inpool" (Addr.add spoof_base 77) 101)
        else None
      in
      Network.compute_routes net;
      let tap =
        List.nth topo.Chain.attacker_gws
          (min 1 (List.length topo.Chain.attacker_gws - 1))
      in
      let env =
        {
          Aitf_adversary.Adversary.net;
          attacker = topo.Chain.attacker;
          insider;
          tap;
          victim = topo.Chain.victim.Node.addr;
          victim_gw = g_gw1.Node.addr;
          spoof_base;
        }
      in
      ( List.map
          (fun pb ->
            Aitf_adversary.Adversary.launch ~start:params.adversary_start
              ~rng:(Rng.split adv_rng) env pb)
          params.adversaries,
        in_pool )
    end
  in
  let attacker_agent = deployed.Chain.attacker_agent in
  let victim_addr = topo.Chain.victim.Node.addr in
  (* Engine selection. Under [Hybrid], the data plane is fluid: each source
     becomes a one-source aggregate, gateways' filter tables are mirrored
     into the rate domain, and a deterministic sampler materialises probe
     packets so the (unchanged, packet-level) control plane keeps seeing
     traffic. The RNG is only split in hybrid mode, so packet runs replay
     the exact pre-hybrid event sequence. *)
  let fluid_ctx =
    if params.config.Config.engine = Config.Hybrid then
      Some
        (Runner.fluid_plane params.config topo.Chain.net
           (deployed.Chain.victim_gateways @ deployed.Chain.attacker_gateways)
           rng)
    else None
  in
  let fluid = Option.map fst fluid_ctx in
  let flow =
    Runner.host_flow ~sim params.config fluid_ctx ~dst:victim_addr
      topo.Chain.net
  in
  Option.iter
    (flow ~agent:None ~flow_id:3 ~rate:params.in_pool_legit_rate ~attack:false
       ~start:0.)
    in_pool_client;
  flow ~agent:(Some attacker_agent) ~flow_id:1 ~rate:params.attack_rate
    ~attack:true ~start:params.attack_start topo.Chain.attacker;
  let legit_on = params.legit_rate > 0. in
  if legit_on then
    flow ~agent:None ~flow_id:2 ~rate:params.legit_rate ~attack:false
      ~start:0. topo.Chain.bystander;
  let victim_rate =
    Runner.victim_rate sim ~period:params.sample_period ~until:params.duration
      fluid
  in
  (* When a metrics registry is attached, every component above has already
     self-registered; the sampler adds the sim-level metrics and the
     time-series half of the run report. *)
  let sampler = Runner.start_metrics sim ~interval:params.sample_period in
  Sim.run ~until:params.duration sim;
  let attack_offered_bytes =
    params.attack_rate *. (params.duration -. params.attack_start) /. 8.
  in
  let attack_received_bytes = Runner.delivered sim fluid ~attack:true in
  let good_received_bytes = Runner.delivered sim fluid ~attack:false in
  let good_offered_bytes =
    (if legit_on then params.legit_rate *. params.duration /. 8. else 0.)
    +.
    match in_pool_client with
    | Some _ -> params.in_pool_legit_rate *. params.duration /. 8.
    | None -> 0.
  in
  let all_gateways =
    deployed.Chain.victim_gateways @ deployed.Chain.attacker_gateways
  in
  let overload_total f =
    List.fold_left
      (fun acc gw ->
        match Gateway.overload gw with
        | Some mgr -> acc + f mgr
        | None -> acc)
      0 all_gateways
  in
  {
    params;
    deployed;
    attack_offered_bytes;
    attack_received_bytes;
    r_measured =
      (if attack_offered_bytes > 0. then
         attack_received_bytes /. attack_offered_bytes
       else 0.);
    good_offered_bytes;
    good_received_bytes;
    victim_rate;
    escalations =
      counter_total deployed.Chain.victim_gateways Gateway.Escalated;
    requests_sent =
      Host_agent.Victim.requests_sent deployed.Chain.victim_agent;
    requests_retransmitted =
      Host_agent.Victim.count deployed.Chain.victim_agent
        Host_agent.Victim.Victim_retransmit;
    ctrl_retransmits = counter_total all_gateways Gateway.Ctrl_retransmit;
    ctrl_gave_up = counter_total all_gateways Gateway.Ctrl_gave_up;
    faults_injected =
      List.fold_left
        (fun acc i -> acc + Aitf_fault.Fault.drops i)
        0 injectors;
    adversary_handles;
    overload_aggregations =
      overload_total (fun m -> Aitf_filter.Overload.(count m Aggregate));
    overload_evictions = overload_total Aitf_filter.Overload.evictions;
    collateral_packets = overload_total Aitf_filter.Overload.collateral_packets;
    collateral_bytes = overload_total Aitf_filter.Overload.collateral_bytes;
    sampler;
    fluid;
    events_processed = Sim.events_processed sim;
  }

let time_to_suppress result ~threshold =
  let limit = threshold *. result.params.attack_rate in
  let after_start (t, _) = t >= result.params.attack_start in
  let points = List.filter after_start (Series.points result.victim_rate) in
  (* Find the first point below the limit that is followed by another
     below-limit sample (debounce a single lucky window). *)
  let rec scan = function
    | (t, v) :: ((_, v') :: _ as rest) ->
      if v < limit && v' < limit then Some t else scan rest
    | [ (t, v) ] -> if v < limit then Some t else None
    | [] -> None
  in
  (* Only meaningful once the attack has had a chance to be seen. *)
  let rec drop_until_seen = function
    | (_, v) :: rest when v <= 0. -> drop_until_seen rest
    | l -> l
  in
  scan (drop_until_seen points)

(* --- Distributed flood on the provider hierarchy -------------------------- *)

type flood_params = {
  hierarchy : Hierarchy.spec;
  flood_config : Config.t;
  flood_seed : int;
  flood_duration : float;
  zombies : int;
  zombie_rate : float;
  zombie_strategy : Policy.attacker_response;
  legit_clients : int;
  legit_rate : float;
  attack_start : float;
  with_aitf : bool;
  flood_sample_period : float;
}

let default_flood =
  {
    hierarchy =
      {
        Hierarchy.default_spec with
        Hierarchy.isps = 3;
        nets_per_isp = 3;
        hosts_per_net = 3;
      };
    flood_config = Config.with_timescale Config.default 0.1;
    flood_seed = 42;
    flood_duration = 20.;
    zombies = 12;
    zombie_rate = 1e6;
    zombie_strategy = Policy.Ignores;
    legit_clients = 2;
    legit_rate = 2e5;
    attack_start = 1.;
    with_aitf = true;
    flood_sample_period = 0.25;
  }

type flood_result = {
  flood_params : flood_params;
  hierarchy_deployed : Hierarchy.deployed option;
  victim : Host_agent.Victim.t option;
  zombies_placed : int;
  legit_received_bytes : float;
  legit_offered_bytes : float;
  flood_attack_received_bytes : float;
  leaf_filters : int;
  isp_filters : int;
  flood_sampler : Aitf_obs.Sampler.t option;
  flood_fluid : Fluid.t option;
  flood_events : int;
  flood_ledger : Aitf_obs.Ledger.t;
}

let check_flood p =
  if not (p.zombie_rate > 0.) then
    Error
      (Printf.sprintf "flood: zombie rate must be positive, got %g"
         p.zombie_rate)
  else if not (p.legit_rate >= 0.) then
    Error
      (Printf.sprintf "flood: legit rate must be non-negative, got %g"
         p.legit_rate)
  else Ok ()

let run_flood p =
  Result.iter_error invalid_arg (check_flood p);
  let sim = Sim.create () in
  let rng = Rng.create ~seed:p.flood_seed in
  let t = Hierarchy.build sim p.hierarchy in
  let config = p.flood_config in
  let deployed =
    if p.with_aitf then Some (Hierarchy.deploy ~config ~rng t) else None
  in
  let victim_node = Hierarchy.host t ~isp:0 ~net:0 ~host:0 in
  let victim =
    Option.map
      (fun d -> Hierarchy.attach_victim ~td:0.1 d ~config ~isp:0 ~net:0 ~host:0)
      deployed
  in
  (* Hybrid: the whole data plane is fluid; the control plane (when AITF is
     deployed) is driven by per-zombie probe samplers. *)
  let fluid_ctx =
    if config.Config.engine = Config.Hybrid then
      let gws =
        match deployed with
        | Some d ->
          List.concat_map Array.to_list
            (Array.to_list d.Hierarchy.net_gateways)
          @ Array.to_list d.Hierarchy.isp_gateways
        | None -> []
      in
      Some (Runner.fluid_plane config t.Hierarchy.net gws rng)
    else None
  in
  let fluid = Option.map fst fluid_ctx in
  let flow =
    Runner.host_flow ~sim config fluid_ctx ~dst:victim_node.Node.addr
      t.Hierarchy.net
  in
  (* Legit clients inside the victim's ISP (excluding the victim's own
     host slot). *)
  let placed_clients = ref 0 in
  for net = 0 to p.hierarchy.Hierarchy.nets_per_isp - 1 do
    for host = 0 to p.hierarchy.Hierarchy.hosts_per_net - 1 do
      if
        p.legit_rate > 0.
        && !placed_clients < p.legit_clients
        && not (net = 0 && host = 0)
      then begin
        incr placed_clients;
        let src = Hierarchy.host t ~isp:0 ~net ~host in
        flow ~agent:None ~flow_id:(2000 + !placed_clients) ~rate:p.legit_rate
          ~attack:false ~start:0. src
      end
    done
  done;
  (* Zombies round-robin over the other ISPs. *)
  let placed = ref 0 in
  for isp = 1 to p.hierarchy.Hierarchy.isps - 1 do
    for net = 0 to p.hierarchy.Hierarchy.nets_per_isp - 1 do
      for host = 0 to p.hierarchy.Hierarchy.hosts_per_net - 1 do
        if !placed < p.zombies then begin
          incr placed;
          let agent =
            Option.map
              (fun d ->
                Hierarchy.attach_attacker ~strategy:p.zombie_strategy d ~config
                  ~isp ~net ~host)
              deployed
          in
          flow ~agent ~flow_id:(1000 + !placed) ~rate:p.zombie_rate
            ~attack:true ~start:p.attack_start
            (Hierarchy.host t ~isp ~net ~host)
        end
      done
    done
  done;
  let flood_sampler = Runner.start_metrics sim ~interval:p.flood_sample_period in
  Sim.run ~until:p.flood_duration sim;
  let filters_at gws =
    Array.fold_left
      (fun acc gw -> acc + Gateway.count gw Gateway.Filter_long)
      0 gws
  in
  let leaf_filters, isp_filters =
    match deployed with
    | None -> (0, 0)
    | Some d ->
      ( Array.fold_left
          (fun acc row -> acc + filters_at row)
          0 d.Hierarchy.net_gateways,
        filters_at d.Hierarchy.isp_gateways )
  in
  {
    flood_params = p;
    hierarchy_deployed = deployed;
    victim;
    zombies_placed = !placed;
    legit_received_bytes = Runner.delivered sim fluid ~attack:false;
    legit_offered_bytes =
      float_of_int !placed_clients *. p.legit_rate *. p.flood_duration /. 8.;
    flood_attack_received_bytes = Runner.delivered sim fluid ~attack:true;
    leaf_filters;
    isp_filters;
    flood_sampler;
    flood_fluid = fluid;
    flood_events = Sim.events_processed sim;
    flood_ledger = Aitf_obs.Ledger.of_sim sim;
  }

(* --- Massive-swarm scenario (hybrid engine only) ------------------------ *)

type swarm_params = {
  swarm_spec : Chain.spec;
  swarm_config : Config.t;
  swarm_seed : int;
  swarm_duration : float;
  swarm_sources : int;
  swarm_pools : int;
  swarm_attack_rate : float;
  swarm_legit_rate : float;
  swarm_attack_start : float;
  swarm_td : float;
  swarm_sample_period : float;
}

let default_swarm =
  {
    swarm_spec = Chain.default_spec;
    swarm_config = Config.default;
    swarm_seed = 42;
    swarm_duration = 30.;
    swarm_sources = 1000;
    swarm_pools = 4;
    swarm_attack_rate = 20e6;
    swarm_legit_rate = 1e6;
    swarm_attack_start = 1.;
    swarm_td = 0.1;
    swarm_sample_period = 0.1;
  }

type swarm_result = {
  swarm_params : swarm_params;
  swarm_deployed : Chain.deployed;
  swarm_fluid : Fluid.t;
  swarm_good_offered_bytes : float;
  swarm_good_received_bytes : float;
  swarm_attack_received_bytes : float;
  swarm_victim_rate : Series.t;
  swarm_requests_sent : int;
  swarm_filters : int;
  swarm_absorbed : int;
  swarm_events : int;
  swarm_sampler : Aitf_obs.Sampler.t option;
}

(* Each pool advertises a /12 (room for 2^20 sources) from 32.0.0.0 up, so
   pool j's aggregate can spread its sources over a contiguous range that
   routes back to the pool node for the reverse control path. *)
let pool_prefix j = Addr.prefix (Addr.of_octets 32 (16 * j) 0 0) 12

let check_swarm p =
  if p.swarm_pools < 1 || p.swarm_pools > 16 then
    Error (Printf.sprintf "swarm: pools must be in 1..16, got %d" p.swarm_pools)
  else if p.swarm_sources < p.swarm_pools then
    Error "swarm: need at least one source per pool"
  else if (p.swarm_sources / p.swarm_pools) + 1 > 1 lsl 20 then
    Error
      (Printf.sprintf "swarm: %d sources over %d pools is more than 2^20 per pool"
         p.swarm_sources p.swarm_pools)
  else Ok ()

let run_swarm p =
  Result.iter_error invalid_arg (check_swarm p);
  let sim = Sim.create () in
  let rng = Rng.create ~seed:p.swarm_seed in
  let topo = Chain.build sim p.swarm_spec in
  let pools =
    Runner.spoofed_pools topo p.swarm_spec ~rate:p.swarm_attack_rate
      (Array.init p.swarm_pools (fun j ->
           (Printf.sprintf "pool%d" j, pool_prefix j)))
  in
  let config = p.swarm_config in
  let deployed = Chain.deploy ~victim_td:p.swarm_td ~config ~rng topo in
  let all_gws =
    deployed.Chain.victim_gateways @ deployed.Chain.attacker_gateways
  in
  let eng, frng = Runner.fluid_plane config topo.Chain.net all_gws rng in
  let victim_addr = topo.Chain.victim.Node.addr in
  let base = p.swarm_sources / p.swarm_pools in
  let rem = p.swarm_sources mod p.swarm_pools in
  Array.iteri
    (fun j pool ->
      let n = base + if j < rem then 1 else 0 in
      let rate =
        p.swarm_attack_rate *. float_of_int n /. float_of_int p.swarm_sources
      in
      let agg =
        Fluid.add_aggregate eng ~flow_id:(1000 + j) ~origin:pool
          ~src_base:(Addr.of_octets 32 (16 * j) 0 0)
          ~n ~rate ~dst:victim_addr ~attack:true ~start:p.swarm_attack_start
      in
      Fluid_bridge.absorb_pool_requests pool;
      Runner.attach_probe ~sim config frng eng agg)
    pools;
  if p.swarm_legit_rate > 0. then
    Runner.host_flow ~sim config
      (Some (eng, frng))
      ~agent:None ~flow_id:2 ~rate:p.swarm_legit_rate ~dst:victim_addr
      ~attack:false ~start:0. topo.Chain.net topo.Chain.bystander;
  let swarm_victim_rate =
    Runner.victim_rate sim ~period:p.swarm_sample_period
      ~until:p.swarm_duration (Some eng)
  in
  let swarm_sampler =
    Runner.start_metrics sim ~interval:p.swarm_sample_period
  in
  Sim.run ~until:p.swarm_duration sim;
  {
    swarm_params = p;
    swarm_deployed = deployed;
    swarm_fluid = eng;
    swarm_good_offered_bytes =
      (if p.swarm_legit_rate > 0. then
         p.swarm_legit_rate *. p.swarm_duration /. 8.
       else 0.);
    swarm_good_received_bytes = Runner.delivered sim (Some eng) ~attack:false;
    swarm_attack_received_bytes = Runner.delivered sim (Some eng) ~attack:true;
    swarm_victim_rate;
    swarm_requests_sent =
      Host_agent.Victim.requests_sent deployed.Chain.victim_agent;
    swarm_filters = Runner.filter_installs all_gws;
    swarm_absorbed = Runner.absorbed sim;
    swarm_events = Sim.events_processed sim;
    swarm_sampler;
  }
