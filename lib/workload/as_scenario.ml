module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Sched = Aitf_parallel.Sched
module Series = Aitf_stats.Series
module Fluid = Aitf_flowsim.Fluid
module Filter_table = Aitf_filter.Filter_table
module Signing = Aitf_contract.Signing
module Auditor = Aitf_contract.Auditor
module Adversary = Aitf_adversary.Adversary
module Metrics = Aitf_obs.Metrics
module Json = Aitf_obs.Json
open Aitf_net
open Aitf_core
open Aitf_topo

type params = {
  as_spec : As_graph.spec;
  as_config : Config.t;
  as_seed : int;
  as_duration : float;
  as_sources : int;
  as_attack_domains : int;
  as_legit_domains : int;
  as_legit_sources : int;
  as_attack_rate : float;
  as_legit_rate : float;
  as_attack_start : float;
  as_td : float;
  as_sample_period : float;
  as_contracts : bool;
  as_byzantine_fraction : float;
  as_lying_mode : Adversary.lying_mode;
  as_contract : Contract.t option;
  as_audit : Auditor.config;
  as_shards : int;
}

let default =
  {
    as_spec = As_graph.default_spec;
    as_config = Config.default;
    as_seed = 42;
    as_duration = 30.;
    as_sources = 100_000;
    as_attack_domains = 40;
    as_legit_domains = 10;
    as_legit_sources = 10_000;
    as_attack_rate = 200e6;
    as_legit_rate = 5e6;
    as_attack_start = 1.;
    as_td = 0.1;
    as_sample_period = 0.1;
    as_contracts = false;
    as_byzantine_fraction = 0.;
    as_lying_mode = Adversary.Accept_ignore;
    as_contract = None;
    as_audit = Auditor.default_config;
    as_shards = 1;
  }

type result = {
  r_params : params;
  r_graph : As_graph.t;
  r_gateways : Gateway.t array;
  r_fluid : Fluid.t;
  r_ctl : Placement_ctl.t option;
  r_victim_domain : int;
  r_good_offered_bytes : float;
  r_good_received_bytes : float;
  r_attack_received_bytes : float;
  r_collateral_fraction : float;
  r_victim_rate : Series.t;
  r_time_to_filter : float option;
  r_slots_peak : int;
  r_filters_installed : int;
  r_requests_sent : int;
  r_reports : int;
  r_absorbed : int;
  r_events : int;
  r_auditor : Auditor.t option;
  r_byzantine : (int * Addr.t) list;
  r_failovers : int;
  r_shards : int;
  r_sched_stats : Sched.stats;
  r_parallel : Json.t option;
}

(* Per-domain pool sub-ranges inside the /16: the attack pool owns the top
   half (/17 at +0x8000), the legitimate pool a quarter (/18 at +0x4000) —
   both clear of the infrastructure addresses at the bottom. *)
let attack_off = 0x8000
let legit_off = 0x4000

let check p =
  let spec = p.as_spec in
  let per_domain sources domains = (sources + domains - 1) / domains in
  let room = spec.As_graph.domains - 1 - spec.As_graph.tier1 in
  match As_graph.check spec with
  | Error _ as e -> e
  | Ok () ->
    if p.as_attack_domains < 1 || p.as_legit_domains < 1 then
      Error "internet: need at least one pool domain of each kind"
    else if per_domain p.as_sources p.as_attack_domains > 1 lsl 15 then
      Error
        "internet: more than 2^15 attack sources per domain (use more attack \
         domains)"
    else if per_domain p.as_legit_sources p.as_legit_domains > 1 lsl 14 then
      Error
        "internet: more than 2^14 legitimate sources per domain (use more \
         legit domains)"
    else if p.as_attack_domains + p.as_legit_domains > room then
      Error
        (Printf.sprintf
           "internet: %d attack + %d legit pool domains exceed the %d \
            non-tier-1, non-victim domains"
           p.as_attack_domains p.as_legit_domains (max room 0))
    else if p.as_shards < 1 then
      Error (Printf.sprintf "internet: shards must be >= 1, got %d" p.as_shards)
    else Ok ()

let run p =
  Result.iter_error invalid_arg (check p);
  let spec = p.as_spec in
  let n = spec.As_graph.domains in
  let shards = p.as_shards in
  let sched = Sched.create ~shards () in
  let sim = Sched.global sched in
  (* The scheduler gave each shard world its own run context (see
     [Sched.create]); each worker domain also needs a disjoint packet-id
     stride, because SPIE digests hash packet ids. *)
  let sharded = shards > 1 in
  if sharded then
    Sched.set_worker_init sched (fun ~shard ->
        Packet.bind_domain ~id_base:((shard + 1) lsl 40));
  Metrics.if_attached sim (fun reg ->
      if not (Metrics.registered reg "sched.windows") then
        Sched.register_metrics sched reg ~prefix:"sched";
      if sharded then Sched.set_window_log sched ~max:20_000);
  let rng = Rng.create ~seed:p.as_seed in
  (* Generation is plan -> (picks) -> partition -> materialise: the picks
     draw from the same stream position as they did when [As_graph.build]
     ran first, and partitioning consumes no randomness, so 1-shard runs
     replay the historical sequence bit for bit. *)
  let plan = As_graph.plan rng spec in
  (* The last domain never acquired customers (providers are always chosen
     among earlier domains), so it is guaranteed to be a stub — the victim
     lives there, behind its bottleneck access link. *)
  let vdom = n - 1 in
  (* Distinct uniform domain picks among non-tier-1, non-victim domains. *)
  let pick k avoid =
    let lo = spec.As_graph.tier1 and hi = n - 2 in
    let seen = Hashtbl.create (4 * k) in
    List.iter (fun d -> Hashtbl.replace seen d ()) avoid;
    let out = ref [] and got = ref 0 in
    while !got < k do
      let d = lo + Rng.int rng (hi - lo + 1) in
      if not (Hashtbl.mem seen d) then begin
        Hashtbl.replace seen d ();
        out := d :: !out;
        incr got
      end
    done;
    List.rev !out
  in
  let attack_domains = pick p.as_attack_domains [] in
  let legit_domains = pick p.as_legit_domains attack_domains in
  (* Domain -> shard map, weighted by expected event load: the victim
     domain is the funnel every probe converges on (heaviest), attack-pool
     domains emit the probe streams, legitimate pools a trickle, transit
     domains mostly forward. *)
  let part =
    if shards = 1 then Array.make n 0
    else begin
      let attack_set = Hashtbl.create 64 and legit_set = Hashtbl.create 16 in
      List.iter (fun d -> Hashtbl.replace attack_set d ()) attack_domains;
      List.iter (fun d -> Hashtbl.replace legit_set d ()) legit_domains;
      As_graph.partition plan ~shards ~weight:(fun d ->
          if d = vdom then 16.
          else if Hashtbl.mem attack_set d then 8.
          else if Hashtbl.mem legit_set d then 2.
          else 1.)
    end
  in
  let sim_of_as d = Sched.shard_sim sched part.(d) in
  let graph =
    As_graph.materialise
      ?sim_of_as:(if shards > 1 then Some sim_of_as else None)
      sim plan
  in
  let net = As_graph.net graph in
  (* Cross-shard inter-domain links become remote: the transmit side stays
     local, delivery is posted into the destination shard's inbox, and the
     link's propagation delay is registered as that channel's lookahead.
     Host/pool access links attach later, always intra-domain, so routers'
     ports here are the complete cross-shard set. *)
  if shards > 1 then
    List.iter
      (fun node ->
        List.iter
          (fun (port : Node.port) ->
            let peer = Network.node net port.Node.peer_id in
            let s_src = part.(node.Node.as_id)
            and s_dst = part.(peer.Node.as_id) in
            if s_src <> s_dst then begin
              Sched.register_channel sched ~src:s_src ~dst:s_dst
                ~lookahead:(Link.delay port.Node.link);
              Link.set_remote port.Node.link (fun ~time fn ->
                  Sched.post sched ~dst:s_dst ~time fn)
            end)
          node.Node.ports)
      (Network.nodes net);
  let victim_node = As_graph.attach_host graph ~domain:vdom in
  let base_of d = (As_graph.domain_prefix d).Addr.base in
  let attach off len d =
    let range = Addr.prefix (Addr.add (base_of d) off) len in
    (d, As_graph.attach_pool graph ~domain:d ~range)
  in
  let attack_pools = List.map (attach attack_off 17) attack_domains in
  let legit_pools = List.map (attach legit_off 18) legit_domains in
  let config = p.as_config in
  let eng = Fluid.create ~epoch:config.Config.hybrid_epoch net in
  let ctl =
    match config.Config.placement with
    | Placement.Vanilla -> None
    | (Placement.Optimal | Placement.Adaptive) as policy ->
      (* Threshold between the per-domain attack rate and any plausible
         legitimate pool rate, with a floor for tiny runs. *)
      let suspect_rate =
        Float.max 1e6
          (0.5 *. p.as_attack_rate /. float_of_int p.as_attack_domains)
      in
      Some
        (Placement_ctl.create ~defer:(Sched.defer sched) ~suspect_rate ~policy
           ~fluid:eng config)
  in
  let deployed =
    As_graph.deploy
      ?placement:(Option.map Placement_ctl.handle ctl)
      ?contract:p.as_contract ~config ~rng graph
  in
  let gws = deployed.As_graph.gateways in
  Option.iter
    (fun c -> Placement_ctl.register_gateways ~defer:(Sched.defer sched) c gws)
    ctl;
  Array.iter
    (fun gw ->
      Fluid.attach_table ~defer:(Sched.defer sched) eng
        ~node:(Gateway.node gw) (Gateway.filters gw))
    gws;
  let victim =
    Host_agent.Victim.create ~td:p.as_td
      ~gateway:(As_graph.router graph vdom).Node.addr
      ~config net victim_node
  in
  let victim_addr = victim_node.Node.addr in
  (* Verifiable-contract wiring (docs/CONTRACTS.md). Strictly inside the
     [as_contracts] branch — including the [Rng.split] — so contracts-off
     runs consume the identical rng stream and stay bit-identical. *)
  let contracts =
    if not p.as_contracts then None
    else begin
      let crng = Rng.split rng in
      let signing = Signing.create ~seed:p.as_seed in
      Array.iter
        (fun gw ->
          Gateway.enable_contracts gw
            ~sign:(Signing.signer signing (Gateway.addr gw))
            ~verify:(Signing.verify signing))
        gws;
      Host_agent.Victim.set_signer victim (Signing.signer signing victim_addr);
      (* Byzantine pick: the candidate set is the attack-side first-hop
         gateways — the on-path domains that actually receive the victim's
         round-0 filtering work (a corrupted transit AS that never sees a
         request has nothing to lie about). A seeded partial Fisher–Yates
         corrupts round(fraction * |candidates|) of them; failover then
         escalates past each convicted liar to the next (honest, transit)
         AS on the route. *)
      let arr = Array.of_list attack_domains in
      Array.sort compare arr;
      let n_byz =
        Int.min (Array.length arr)
          (int_of_float
             (Float.round
                (p.as_byzantine_fraction *. float_of_int (Array.length arr))))
      in
      for i = 0 to n_byz - 1 do
        let j = i + Rng.int crng (Array.length arr - i) in
        let tmp = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- tmp
      done;
      let byz = List.sort compare (Array.to_list (Array.sub arr 0 n_byz)) in
      ignore
        (Adversary.corrupt ~mode:p.as_lying_mode
           (List.map (fun d -> gws.(d)) byz));
      let failovers = ref 0 in
      (* Conviction: every gateway learns the liar's address (escalation
         skips it from now on), the placement controller treats it as
         zero-capacity, and the victim's gateway re-engages every contract
         that was parked at it. *)
      let on_flag peer =
        Array.iter (fun g -> Gateway.flag_peer g peer) gws;
        Option.iter (fun c -> Placement_ctl.flag_gateway c peer) ctl;
        failovers := !failovers + Gateway.fail_over gws.(vdom) ~peer
      in
      let auditor =
        Auditor.create ~config:p.as_audit
          ~verify:(Signing.verify signing)
          ~gateway:(As_graph.router graph vdom).Node.addr
          ~on_flag sim
      in
      (* Victim-side observations reach the auditor through the defer
         seam: the victim executes inside its shard's window, while the
         auditor's state belongs to the coordinator (its tick runs on the
         global sim). Each observation captures the victim shard's clock
         at the moment it happened, then replays at the barrier in
         deterministic (time, shard, seq) order. With one shard, [defer]
         runs the thunk immediately — bit-identical to the direct calls
         this replaces. *)
      let vsim = sim_of_as vdom in
      Host_agent.Victim.set_receipt_sink victim (fun r ->
          let now = Sim.now vsim in
          Sched.defer sched (fun () -> Auditor.on_receipt ~now auditor r));
      Host_agent.Victim.set_request_observer victim (fun req ->
          let now = Sim.now vsim in
          Sched.defer sched (fun () -> Auditor.note_request ~now auditor req));
      Host_agent.Victim.set_arrival_observer victim (fun flow at ->
          Sched.defer sched (fun () -> Auditor.note_arrival auditor flow at));
      Some
        (auditor, List.map (fun d -> (d, Gateway.addr gws.(d))) byz, failovers)
    end
  in
  let frng = Rng.split rng in
  let add_pools pools ~off ~total_sources ~total_rate ~attack ~start ~fid0 =
    let k = List.length pools in
    let base_n = total_sources / k and rem = total_sources mod k in
    List.iteri
      (fun j (d, pool) ->
        let cnt = base_n + if j < rem then 1 else 0 in
        if cnt > 0 then begin
          let rate =
            total_rate *. float_of_int cnt /. float_of_int total_sources
          in
          let agg =
            Fluid.add_aggregate eng ~flow_id:(fid0 + j) ~origin:pool
              ~src_base:(Addr.add (base_of d) off)
              ~n:cnt ~rate ~dst:victim_addr ~attack ~start
          in
          if attack then begin
            Fluid_bridge.absorb_pool_requests pool;
            Runner.attach_probe ~sim:(sim_of_as d) config frng eng agg
          end
        end)
      pools
  in
  add_pools attack_pools ~off:attack_off ~total_sources:p.as_sources
    ~total_rate:p.as_attack_rate ~attack:true ~start:p.as_attack_start
    ~fid0:1000;
  add_pools legit_pools ~off:legit_off ~total_sources:p.as_legit_sources
    ~total_rate:p.as_legit_rate ~attack:false ~start:0. ~fid0:2000;
  let series =
    Runner.victim_rate sim ~period:p.as_sample_period ~until:p.as_duration
      (Some eng)
  in
  Sched.run ~until:p.as_duration sched;
  let slots_peak =
    Array.fold_left
      (fun acc gw -> acc + Filter_table.peak_occupancy (Gateway.filters gw))
      0 gws
  in
  let installed =
    Array.fold_left
      (fun acc gw -> acc + Filter_table.installs (Gateway.filters gw))
      0 gws
  in
  let good_offered = p.as_legit_rate *. p.as_duration /. 8. in
  let good_received = Runner.delivered sim (Some eng) ~attack:false in
  let time_to_filter =
    (* Seconds from attack start until the victim's attack rate falls below
       5% of the offered rate and stays there; [None] if it is still above
       at the end of the run. *)
    let thresh = 0.05 *. p.as_attack_rate in
    let pts =
      List.filter (fun (t, _) -> t >= p.as_attack_start) (Series.points series)
    in
    let last_high =
      List.fold_left
        (fun acc (t, v) -> if v > thresh then Some t else acc)
        None pts
    in
    match last_high with
    | None -> Some 0.  (* suppressed within the first sample *)
    | Some th -> (
      match List.find_opt (fun (t, _) -> t > th) pts with
      | Some (t, _) -> Some (t -. p.as_attack_start)
      | None -> None (* still above threshold when the run ended *))
  in
  (* The run report's "parallel" section: final synchronization counters,
     a per-shard event breakdown, and (when the window log was armed) the
     per-window timeline of horizon / barrier stall / event counts. *)
  let r_parallel =
    if shards <= 1 then None
    else begin
      let st = Sched.stats sched in
      let finite_or_inf x =
        if Float.is_finite x then Json.Float x else Json.String "inf"
      in
      let per_shard =
        Array.to_list
          (Array.mapi
             (fun i e ->
               Json.Obj [ ("shard", Json.Int i); ("events", Json.Int e) ])
             (Sched.shard_events sched))
      in
      let timeline =
        match Sched.window_log sched with
        | [] -> []
        | wl ->
          [
            ( "window_timeline",
              Json.Obj
                [
                  ("dropped", Json.Int (Sched.window_log_dropped sched));
                  ( "points",
                    Json.List
                      (List.map
                         (fun (w : Sched.window_record) ->
                           Json.Obj
                             [
                               ("horizon", Json.Float w.Sched.w_horizon);
                               ("stall_seconds", Json.Float w.Sched.w_stall);
                               ( "events",
                                 Json.List
                                   (Array.to_list
                                      (Array.map
                                         (fun e -> Json.Int e)
                                         w.Sched.w_events)) );
                               ("messages", Json.Int w.Sched.w_messages);
                               ("deferred", Json.Int w.Sched.w_deferred);
                             ])
                         wl) );
                ] );
          ]
      in
      Some
        (Json.Obj
           ([
              ("shards", Json.Int shards);
              ("lookahead", finite_or_inf (Sched.lookahead sched));
              ("windows", Json.Int st.Sched.windows);
              ("global_batches", Json.Int st.Sched.global_batches);
              ("messages", Json.Int st.Sched.messages);
              ("deferred", Json.Int st.Sched.deferred);
              ("stall_seconds", Json.Float st.Sched.stall_seconds);
              ("global_events", Json.Int (Sim.events_processed sim));
              ("per_shard", Json.List per_shard);
            ]
           @ timeline))
    end
  in
  {
    r_params = p;
    r_graph = graph;
    r_gateways = gws;
    r_fluid = eng;
    r_ctl = ctl;
    r_victim_domain = vdom;
    r_good_offered_bytes = good_offered;
    r_good_received_bytes = good_received;
    r_attack_received_bytes = Runner.delivered sim (Some eng) ~attack:true;
    r_collateral_fraction =
      (if good_offered > 0. then
         Float.max 0. (1. -. (good_received /. good_offered))
       else 0.);
    r_victim_rate = series;
    r_time_to_filter = time_to_filter;
    r_slots_peak = slots_peak;
    r_filters_installed = installed;
    r_requests_sent = Host_agent.Victim.requests_sent victim;
    r_reports = (match ctl with Some c -> Placement_ctl.evidence c | None -> 0);
    r_absorbed = Runner.absorbed sim;
    r_events = Sched.events_processed sched;
    r_auditor = Option.map (fun (a, _, _) -> a) contracts;
    r_byzantine = (match contracts with Some (_, b, _) -> b | None -> []);
    r_failovers = (match contracts with Some (_, _, f) -> !f | None -> 0);
    r_shards = shards;
    r_sched_stats = Sched.stats sched;
    r_parallel;
  }
