(* The benchmark's workloads: how each one builds its simulation from the
   seed, what a run's outcome is, and how the outcome is checked.

   Every workload is a closed-loop batch: one simulation at a time, the
   next starting when the previous one returns. The program receives only
   the parameters built here; the seed picks the generated inputs (the AS
   graph, pool placement and gateway nonces). *)

open Aitf_net
open Aitf_core
module As_graph = Aitf_topo.As_graph
module Hierarchy = Aitf_topo.Hierarchy
module As_scenario = Aitf_workload.As_scenario
module Scenarios = Aitf_workload.Scenarios
module Placement_ctl = Aitf_workload.Placement_ctl
module Fluid = Aitf_flowsim.Fluid
module Filter_table = Aitf_filter.Filter_table
module Sched = Aitf_parallel.Sched
module Json = Aitf_obs.Json

(* What one simulation did, in the paper's terms plus the work it took.
   Identical across reps and across processes for one (workload, seed). *)
type outcome = {
  events : int;
  hops : int;  (** sum of [Link.tx_packets] over the network *)
  attack_bytes : float;  (** attack bytes delivered to the victim *)
  legit_bytes : float;  (** legitimate bytes delivered to the victim *)
  installs : int;  (** filter installs over every gateway *)
  peak_slots : int;  (** sum of per-gateway peak filter occupancy *)
  time_to_filter : float option;
}

(* One simulation's result: the outcome plus the layer counts the traced
   run reports (named as in BENCHMARK.json). *)
type rep = { outcome : outcome; counts : (string * float) list }

type t = {
  name : string;
  setup : unit -> unit;
      (** the run's entry point with zero simulated duration: topology,
          gateways and traffic sources built, nothing simulated *)
  run : unit -> rep;
  check : outcome -> (unit, string) result;
      (** the paper's claims on this run's outcome *)
  setup_split : unit -> (string * float) list;
      (** seconds of [topo.plan_s], [topo.materialise_s], [topo.deploy_s],
          timed by calling the topology layer directly *)
  sharded : (unit -> rep) option;
      (** the same simulation on two shards, for the traced run's [sched.*]
          counts; its outcome legitimately differs (ROADMAP item 3b) *)
}

let outcome_json o =
  Json.Obj
    [
      ("events", Json.Int o.events);
      ("hops", Json.Int o.hops);
      ("attack_bytes", Json.Float o.attack_bytes);
      ("legit_bytes", Json.Float o.legit_bytes);
      ("installs", Json.Int o.installs);
      ("peak_slots", Json.Int o.peak_slots);
      ( "time_to_filter",
        match o.time_to_filter with Some t -> Json.Float t | None -> Json.Null );
    ]

let link_totals net =
  List.fold_left
    (fun (tx, drop) l -> (tx + Link.tx_packets l, drop + Link.dropped_packets l))
    (0, 0) (Network.links net)

let now = Unix.gettimeofday

(* --- Internet-scale runs (As_scenario) ------------------------------------ *)

(* The attack starts at 1 s, so every run covers detection, escalation or
   placement, and the attack's steady state. Vanilla runs 3 simulated
   seconds (about 0.3 s of host time), optimal 5. *)
let internet_params ~seed ~placement =
  {
    As_scenario.default with
    as_seed = seed;
    as_duration = (match placement with Placement.Vanilla -> 3. | _ -> 5.);
    as_config = { Config.default with Config.placement };
  }

let shard_imbalance (r : As_scenario.result) =
  (* The largest shard's event count over the mean, from the run report's
     per-shard breakdown; 1.0 for a single shard. *)
  match r.As_scenario.r_parallel with
  | Some (Json.Obj fields) -> (
    match List.assoc_opt "per_shard" fields with
    | Some (Json.List shards) ->
      let events =
        List.filter_map
          (function
            | Json.Obj f -> (
              match List.assoc_opt "events" f with
              | Some (Json.Int e) -> Some (float_of_int e)
              | _ -> None)
            | _ -> None)
          shards
      in
      let n = float_of_int (List.length events) in
      let total = List.fold_left ( +. ) 0. events in
      if total > 0. then List.fold_left Float.max 0. events /. (total /. n)
      else 1.
    | _ -> 1.)
  | _ -> 1.

let internet_rep (r : As_scenario.result) =
  let net = As_graph.net r.As_scenario.r_graph in
  let hops, drops = link_totals net in
  let fluid = r.As_scenario.r_fluid in
  let ctl f = match r.As_scenario.r_ctl with Some c -> f c | None -> 0 in
  let st = r.As_scenario.r_sched_stats in
  let outcome =
    {
      events = r.As_scenario.r_events;
      hops;
      attack_bytes = r.As_scenario.r_attack_received_bytes;
      legit_bytes = r.As_scenario.r_good_received_bytes;
      installs = r.As_scenario.r_filters_installed;
      peak_slots = r.As_scenario.r_slots_peak;
      time_to_filter = r.As_scenario.r_time_to_filter;
    }
  in
  let i = float_of_int in
  let counts =
    [
      ("net.hops", i hops);
      ("net.drops", i drops);
      ("core.requests_sent", i r.As_scenario.r_requests_sent);
      ("flowsim.recomputes", i (Fluid.recomputes fluid));
      ("flowsim.link_visits", i (Fluid.link_visits fluid));
      ("placement.evidence", i (ctl Placement_ctl.evidence));
      ("placement.installs", i (ctl Placement_ctl.installs));
      ("placement.reclaims", i (ctl Placement_ctl.reclaims));
      ("sched.windows", i st.Sched.windows);
      ("sched.global_batches", i st.Sched.global_batches);
      ("sched.messages", i st.Sched.messages);
      ("sched.deferred", i st.Sched.deferred);
      ("sched.window_s", st.Sched.stall_seconds);
      ("sched.shard_imbalance", shard_imbalance r);
    ]
  in
  { outcome; counts }

(* Checks that hold at every seed. Optimal placement filters the attack
   within a second or two of its start; vanilla AITF, whose per-flow
   filters cannot cover 10^5 sources, never does (docs/PLACEMENT.md), so
   for it only the bounds below apply. *)
let internet_check (p : As_scenario.params) o =
  let attack_s = p.As_scenario.as_duration -. p.As_scenario.as_attack_start in
  let spec = p.As_scenario.as_spec in
  let attack_cap =
    Float.min p.As_scenario.as_attack_rate spec.As_graph.access_bw *. attack_s /. 8.
  in
  let legit_offered = p.As_scenario.as_legit_rate *. p.As_scenario.as_duration /. 8. in
  let slots = spec.As_graph.domains * p.As_scenario.as_config.Config.filter_capacity in
  if o.events <= 0 || o.hops <= 0 then Error "no events or hops"
  else if o.installs <= 0 then Error "no filter installed"
  else if o.peak_slots > slots then
    Error (Printf.sprintf "peak filter slots %d above the %d available" o.peak_slots slots)
  else if o.attack_bytes > attack_cap *. 1.001 then
    Error (Printf.sprintf "attack bytes at the victim %.0f above %.0f possible" o.attack_bytes attack_cap)
  else if o.legit_bytes <= 0. || o.legit_bytes > legit_offered *. 1.001 then
    Error (Printf.sprintf "legitimate bytes %.0f outside (0, %.0f]" o.legit_bytes legit_offered)
  else
    match (p.As_scenario.as_config.Config.placement, o.time_to_filter) with
    | Placement.Vanilla, _ -> Ok ()
    | _, None -> Error "attack still above 5% of offered at the end of the run"
    | _, Some t when t > 2. -> Error (Printf.sprintf "time-to-filter %.3f s above 2 s" t)
    | _, Some _ -> Ok ()

let internet ~name ~placement ~sharded ~seed =
  let p = internet_params ~seed ~placement in
  let run () = internet_rep (As_scenario.run p) in
  let setup () = ignore (As_scenario.run { p with As_scenario.as_duration = 0. }) in
  let setup_split () =
    let spec = p.As_scenario.as_spec in
    let rng = Aitf_engine.Rng.create ~seed:p.As_scenario.as_seed in
    let t0 = now () in
    let plan = As_graph.plan rng spec in
    let t1 = now () in
    let sim = Aitf_engine.Sim.create () in
    let graph = As_graph.materialise sim plan in
    let t2 = now () in
    ignore (As_graph.deploy ~config:p.As_scenario.as_config ~rng graph);
    let t3 = now () in
    [
      ("topo.plan_s", t1 -. t0);
      ("topo.materialise_s", t2 -. t1);
      ("topo.deploy_s", t3 -. t2);
    ]
  in
  {
    name;
    setup;
    run;
    check = internet_check p;
    setup_split;
    sharded =
      (if sharded then
         Some (fun () -> internet_rep (As_scenario.run { p with As_scenario.as_shards = 2 }))
       else None);
  }

(* --- Packet-level flood on the provider hierarchy (Scenarios.run_flood) --- *)

(* [Scenarios.default_flood] scaled from 12 to 240 zombies: 4 ISPs of 8
   enterprise nets with 10 hosts each; the zombies fill ISPs 1-3 and 20
   legitimate clients sit in the victim's ISP. Its sources are constant
   rate, so the seed (which draws the gateways' nonces) leaves the
   outcome unchanged. *)
let flood_params ~seed =
  let d = Scenarios.default_flood in
  {
    d with
    Scenarios.hierarchy =
      {
        d.Scenarios.hierarchy with
        Hierarchy.isps = 4;
        nets_per_isp = 8;
        hosts_per_net = 10;
      };
    flood_seed = seed;
    flood_duration = 3.;
    zombies = 240;
    legit_clients = 20;
  }

let flood_rep (f : Scenarios.flood_result) =
  let d = Option.get f.Scenarios.hierarchy_deployed in
  let hops, drops = link_totals d.Hierarchy.topo.Hierarchy.net in
  let gws =
    Array.to_list d.Hierarchy.isp_gateways
    @ List.concat_map Array.to_list (Array.to_list d.Hierarchy.net_gateways)
  in
  let sum f = List.fold_left (fun acc gw -> acc + f (Gateway.filters gw)) 0 gws in
  let installs = sum Filter_table.installs in
  let requests =
    match f.Scenarios.victim with Some v -> Host_agent.Victim.requests_sent v | None -> 0
  in
  let outcome =
    {
      events = f.Scenarios.flood_events;
      hops;
      attack_bytes = f.Scenarios.flood_attack_received_bytes;
      legit_bytes = f.Scenarios.legit_received_bytes;
      installs;
      peak_slots = sum Filter_table.peak_occupancy;
      time_to_filter = None;
    }
  in
  let i = float_of_int in
  let counts =
    [
      ("net.hops", i hops);
      ("net.drops", i drops);
      ("core.requests_sent", i requests);
    ]
  in
  { outcome; counts }

let flood ~seed =
  let p = flood_params ~seed in
  let run () = flood_rep (Scenarios.run_flood p) in
  let setup () = ignore (Scenarios.run_flood { p with Scenarios.flood_duration = 0. }) in
  let check o =
    let attack_s = p.Scenarios.flood_duration -. p.Scenarios.attack_start in
    let offered =
      float_of_int p.Scenarios.zombies *. p.Scenarios.zombie_rate *. attack_s /. 8.
    in
    let legit_offered =
      float_of_int p.Scenarios.legit_clients *. p.Scenarios.legit_rate
      *. p.Scenarios.flood_duration /. 8.
    in
    let h = p.Scenarios.hierarchy in
    let slots =
      (h.Hierarchy.isps * (1 + h.Hierarchy.nets_per_isp))
      * p.Scenarios.flood_config.Config.filter_capacity
    in
    if o.events <= 0 || o.hops <= 0 then Error "no events or hops"
    else if o.installs < p.Scenarios.zombies then
      Error (Printf.sprintf "%d filter installs for %d zombies" o.installs p.Scenarios.zombies)
    else if o.peak_slots > slots then
      Error (Printf.sprintf "peak filter slots %d above the %d available" o.peak_slots slots)
    else if not (o.attack_bytes < 0.1 *. offered) then
      Error
        (Printf.sprintf "attack bytes at the victim %.0f not below 10%% of %.0f offered"
           o.attack_bytes offered)
    else if o.legit_bytes <= 0. || o.legit_bytes > legit_offered *. 1.001 then
      Error (Printf.sprintf "legitimate bytes %.0f outside (0, %.0f]" o.legit_bytes legit_offered)
    else Ok ()
  in
  let setup_split () =
    let t0 = now () in
    let topo = Hierarchy.build (Aitf_engine.Sim.create ()) p.Scenarios.hierarchy in
    let t1 = now () in
    let rng = Aitf_engine.Rng.create ~seed:p.Scenarios.flood_seed in
    ignore (Hierarchy.deploy ~config:p.Scenarios.flood_config ~rng topo);
    let t2 = now () in
    [ ("topo.plan_s", 0.); ("topo.materialise_s", t1 -. t0); ("topo.deploy_s", t2 -. t1) ]
  in
  { name = "flood-packet"; setup; run; check; setup_split; sharded = None }

let names = [ "internet-vanilla"; "internet-optimal"; "flood-packet" ]

(* A run's inputs for [seed]. One AS graph's size can need 30% more events
   than another's, so an internet run averages 8 graphs, seeded
   [8 * seed + k]. The flood's outcome does not depend on its seed, so it
   has one input. Only internet-vanilla carries a 2-shard twin: the
   traced run takes the Sched layer's counts from it. *)
let inputs name ~seed =
  let graphs placement ~sharded =
    Some (List.init 8 (fun k -> internet ~name ~placement ~sharded ~seed:((8 * seed) + k)))
  in
  match name with
  | "internet-vanilla" -> graphs Placement.Vanilla ~sharded:true
  | "internet-optimal" -> graphs Placement.Optimal ~sharded:false
  | "flood-packet" -> Some [ flood ~seed ]
  | _ -> None
