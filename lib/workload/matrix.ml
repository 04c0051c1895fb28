module Json = Aitf_obs.Json
module Span = Aitf_obs.Span
module Profile = Aitf_obs.Profile
module Sim = Aitf_engine.Sim
module Series = Aitf_stats.Series
module Table = Aitf_stats.Table
module Fault = Aitf_fault.Fault
module Adversary = Aitf_adversary.Adversary
module Auditor = Aitf_contract.Auditor
open Aitf_core

type cell = {
  id : string;
  topo : string;
  engine : string;
  fault : string;
  adversary : string;
  placement : string;
  shards : int;
  smoke : bool;
  scenario : Scenario.any;
}

let agreement_threshold = 0.10

let mk ?(fault = "pristine") ?(adversary = "calm") ?(placement = "vanilla")
    ?(shards = 1) ?(smoke = false) topo engine scenario =
  {
    id =
      String.concat "-" [ topo; engine; fault; adversary; placement ]
      ^ (if shards > 1 then Printf.sprintf "-shard%d" shards else "");
    topo;
    engine;
    fault;
    adversary;
    placement;
    shards;
    smoke;
    scenario = Scenario.Any scenario;
  }

(* --- per-cell scenarios ---------------------------------------------------- *)

let chain engine =
  {
    Scenarios.default_chain with
    Scenarios.config = { Config.default with Config.engine };
    seed = 11;
    duration = 12.;
    attack_rate = 20e6;
    legit_rate = 1e6;
    td = 0.1;
    sample_period = 0.5;
    adversary_start = 1.;
  }

let chain_faults ctrl_faults engine =
  Scenario.Chain { (chain engine) with Scenarios.ctrl_faults }

let chain_slotx engine =
  Scenario.Chain
    {
      (chain engine) with
      Scenarios.adversaries =
        [ Adversary.Slot_exhaustion { sources = 32; rate = 4e6 } ];
      in_pool_legit_rate = 5e5;
    }

let flood engine =
  Scenario.Flood
    {
      Scenarios.default_flood with
      Scenarios.flood_config =
        { (Config.with_timescale Config.default 0.1) with Config.engine };
      flood_duration = 10.;
      zombies = 6;
      flood_sample_period = 0.5;
    }

let swarm =
  Scenario.Swarm
    {
      Scenarios.default_swarm with
      Scenarios.swarm_duration = 10.;
      swarm_sources = 512;
      swarm_pools = 2;
      swarm_sample_period = 0.5;
    }

let internet placement =
  Scenario.Internet
    {
      As_scenario.default with
      As_scenario.as_spec =
        {
          Aitf_topo.As_graph.default_spec with
          Aitf_topo.As_graph.domains = 150;
          tier1 = 3;
        };
      as_config =
        { Config.default with Config.engine = Config.Hybrid; placement };
      as_seed = 9;
      as_duration = 10.;
      as_sources = 20_000;
      as_attack_domains = 8;
      as_legit_domains = 4;
      as_legit_sources = 2_000;
      as_sample_period = 0.5;
    }

(* The contract cells run docs/CONTRACTS.md's verification regime: a small
   graph whose victim gateway is capacity-constrained (so misbehaviour is
   visible at the victim) and the fast audit clock. The lying cell
   corrupts a quarter of the attack-side gateways to forge receipts — the
   affirmative-evidence mode the auditor must catch with zero false
   positives. *)
let contract byzantine_fraction =
  Scenario.Internet
    {
      As_scenario.default with
      As_scenario.as_spec =
        { Aitf_topo.As_graph.default_spec with Aitf_topo.As_graph.domains = 60 };
      as_config =
        {
          Config.default with
          Config.engine = Config.Hybrid;
          filter_capacity = 150;
        };
      as_seed = 42;
      as_duration = 15.;
      as_sources = 400;
      as_attack_domains = 8;
      as_legit_domains = 4;
      as_sample_period = 0.5;
      as_contracts = true;
      as_byzantine_fraction = byzantine_fraction;
      as_lying_mode = Adversary.Forge;
      as_audit = { Auditor.default_config with deadline = 0.75; grace = 0.35 };
    }

(* Synthesized traces carry only attack pools; splice in a constant
   1 Mbit/s legit pool so the engine-agreement gate below has the same
   goodput observable E17 uses. *)
let replay trace engine =
  let legit =
    {
      Replay.p_id = "legit";
      p_base = Aitf_net.Addr.of_octets 200 0 0 0;
      p_n = 4;
      p_rate = 250e3;
      p_attack = false;
    }
  in
  Scenario.Replay
    ( {
        trace with
        Replay.tr_pools = trace.Replay.tr_pools @ [ legit ];
        tr_events =
          { Replay.ev_time = 0.; ev_pool = "legit"; ev_action = Replay.On }
          :: trace.Replay.tr_events;
      },
      engine )

let pulse = Replay.synth_pulse ~pools:2 ~seed:5 ~duration:12. ~rate:20e6 ~n:32 ()
let churn = Replay.synth_churn ~seed:5 ~duration:12. ~rate:20e6 ~n:64 ()
let booter = Replay.synth_booter ~seed:5 ~duration:12. ~rate:25e6 ~n:48 ()
let carpet = Replay.synth_carpet ~seed:5 ~duration:12. ~rate:20e6 ~n:16 ()
let loss = [ Fault.Loss 0.25 ]
let burst = [ Fault.burst ~p_enter:0.1 ~p_exit:0.4 () ]

(* The matrix. Chain cells sweep faults and adversaries under both
   engines; flood covers the hierarchy topology; swarm and internet are
   hybrid-only (their populations are out of the packet engine's reach);
   the replay cells drive each synthesized attack shape through both
   engines from the same trace. The two contract cells pin the verifiable
   filtering-contract path (docs/CONTRACTS.md): one all-honest, one with a
   quarter of the attack-side gateways forging receipts. The two shard4
   cells pin the parallel engine's observability seams: the same internet
   run on 4 event-queue shards with span tracing merged canonically, and
   the contract regime with the auditor replaying through the defer
   seam. The labels are the golden documents' [dims], byte for byte. *)
let cells =
  [
    mk ~smoke:true "chain" "packet" (Scenario.Chain (chain Config.Packet));
    mk ~smoke:true "chain" "hybrid" (Scenario.Chain (chain Config.Hybrid));
    mk ~fault:"loss" "chain" "packet" (chain_faults loss Config.Packet);
    mk ~fault:"loss" "chain" "hybrid" (chain_faults loss Config.Hybrid);
    mk ~fault:"burst" "chain" "packet" (chain_faults burst Config.Packet);
    mk ~fault:"burst" "chain" "hybrid" (chain_faults burst Config.Hybrid);
    mk ~adversary:"slotx" "chain" "packet" (chain_slotx Config.Packet);
    mk ~adversary:"slotx" "chain" "hybrid" (chain_slotx Config.Hybrid);
    mk "flood" "packet" (flood Config.Packet);
    mk "flood" "hybrid" (flood Config.Hybrid);
    mk ~smoke:true "swarm" "hybrid" swarm;
    mk "internet" "hybrid" (internet Placement.Vanilla);
    mk ~placement:"optimal" "internet" "hybrid" (internet Placement.Optimal);
    mk ~placement:"adaptive" "internet" "hybrid" (internet Placement.Adaptive);
    mk ~adversary:"contract" "internet" "hybrid" (contract 0.);
    mk ~adversary:"lying" "internet" "hybrid" (contract 0.25);
    mk ~shards:4 "internet" "hybrid" (internet Placement.Vanilla);
    mk ~shards:4 ~adversary:"contract" "internet" "hybrid" (contract 0.);
    mk ~smoke:true "replay-pulse" "packet" (replay pulse Config.Packet);
    mk ~smoke:true "replay-pulse" "hybrid" (replay pulse Config.Hybrid);
    mk "replay-churn" "packet" (replay churn Config.Packet);
    mk "replay-churn" "hybrid" (replay churn Config.Hybrid);
    mk "replay-booter" "packet" (replay booter Config.Packet);
    mk "replay-booter" "hybrid" (replay booter Config.Hybrid);
    mk "replay-carpet" "packet" (replay carpet Config.Packet);
    mk "replay-carpet" "hybrid" (replay carpet Config.Hybrid);
  ]

(* Shard counts apply to internet cells only; the fixed topologies are
   never sharded. *)
let with_shards shards = function
  | Scenario.Any (Scenario.Internet p) ->
    Scenario.Any (Scenario.Internet { p with As_scenario.as_shards = shards })
  | any -> any

(* --- documents ------------------------------------------------------------- *)

let fl x = Json.Float x
let it n = Json.Int n

let span_digest sp =
  let roots = Span.roots sp in
  let completed = Span.completed_roots sp in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  let detail (r : Span.root) =
    Json.Obj
      [
        ("corr", it r.Span.corr);
        ("flow", Json.String r.Span.flow);
        ("opened_at", fl r.Span.opened_at);
        ( "completed_at",
          match r.Span.completed_at with Some t -> fl t | None -> Json.Null );
        ("spans", it (List.length (Span.spans_of r)));
      ]
  in
  Json.Obj
    [
      ("roots", it (List.length roots));
      ("completed", it (List.length completed));
      ("detail", Json.List (List.map detail (take 20 roots)));
    ]

let doc_of cell outcome series sp =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "aitf.matrix-cell/1");
        ("id", Json.String cell.id);
        ( "dims",
          Json.Obj
            ([
               ("topo", Json.String cell.topo);
               ("engine", Json.String cell.engine);
               ("fault", Json.String cell.fault);
               ("adversary", Json.String cell.adversary);
               ("placement", Json.String cell.placement);
             ]
            (* Only sharded cells carry the dimension, so every 1-shard
               golden stays byte-identical to its pre-sharding form. *)
            @ if cell.shards > 1 then [ ("shards", it cell.shards) ] else []) );
        ("outcome", Json.Obj outcome);
        ( "victim_rate",
          Json.List
            (List.map
               (fun (t, v) -> Json.List [ fl t; fl v ])
               (Series.points series)) );
        ("spans", span_digest sp);
      ]
  in
  Json.to_string doc ^ "\n"

(* --- execution ------------------------------------------------------------- *)

type perf = {
  wall : float;
  alloc_bytes : float;
  peak_queue : int;
  engine_events : int;
}

type status = Match | Drift | Missing | Blessed

type cell_result = {
  cr_cell : cell;
  cr_doc : string;
  cr_outcome : (string * Json.t) list;
  cr_perf : perf;
  cr_digest : string;
  cr_status : status;
}

type pair = {
  pr_base : string;
  pr_metric : string;
  pr_packet : float;
  pr_hybrid : float;
  pr_diff : float;
  pr_gated : bool;
  pr_ok : bool;
}

type summary = {
  s_results : cell_result list;
  s_pairs : pair list;
  s_drifted : int;
  s_missing : int;
  s_disagreements : int;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* One cell, instrumented: fresh span collector (the cell's fresh world
   mints corr ids from 1, so the digest is order-independent), the engine
   profiler for queue depth and event count, GC delta and the run
   context's wall clock for the perf trajectory. Spans are always
   collected — sharded internet cells record into per-shard collectors
   (shards mint from disjoint bases) that the scheduler merges
   canonically back into [sp], and into per-shard profilers it adds back
   into [prof], so the document's span section and [cr_digest] are real
   fingerprints, and the event count covers every world, at any shard
   count. *)
let run_cell ?(shards = 1) cell =
  (* A cell pinned to a shard count keeps it; the caller's --shards
     overrides only the unpinned (1-shard) cells. *)
  let shards = if shards > 1 then shards else cell.shards in
  let sp = Span.create () in
  Span.attach sp;
  let prof = Profile.create () in
  Profile.attach prof;
  let a0 = Gc.allocated_bytes () in
  let clock = Sim.ambient Sim.clock in
  let t0 = clock () in
  let outcome, series, ledger =
    Fun.protect
      ~finally:(fun () ->
        Profile.detach ();
        Span.detach ())
      (fun () ->
        match with_shards shards cell.scenario with
        | Scenario.Any s ->
          let o = Scenario.run s in
          (o.Scenario.fields, o.Scenario.victim_rate, o.Scenario.ledger))
  in
  let wall = clock () -. t0 in
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  (* Every offered byte has one fate: a violation is a simulator bug, not
     a golden drift. *)
  Result.iter_error
    (fun e -> failwith (Printf.sprintf "matrix cell %s: %s" cell.id e))
    (Aitf_obs.Ledger.check ledger);
  let doc = doc_of cell outcome series sp in
  {
    cr_cell = cell;
    cr_doc = doc;
    cr_outcome = outcome;
    cr_perf =
      {
        wall;
        alloc_bytes;
        peak_queue = Profile.peak_pending prof;
        engine_events = Profile.events prof;
      };
    cr_digest = Span.digest sp;
    cr_status = Match (* provisional; the golden compare overwrites it *);
  }

let outcome_float result key =
  match List.assoc_opt key result.cr_outcome with
  | Some j -> Json.get_float j
  | None -> None

(* Engine pairs: cells identical in every dimension but the engine. As
   in E17, the gate counts goodput — the attack transient before filters
   install is a few packets wide and intrinsically engine-sensitive, so
   attack bytes are reported but informational. The gate also only
   counts pristine, adversary-free pairs: fault draws ride
   engine-specific packet streams, so faulted pairs are informational
   too. *)
let pair_up results =
  let find id = List.find_opt (fun r -> r.cr_cell.id = id) results in
  List.concat_map
    (fun r ->
      let c = r.cr_cell in
      if c.engine <> "packet" then []
      else
        let sibling =
          String.concat "-"
            [ c.topo; "hybrid"; c.fault; c.adversary; c.placement ]
        in
        match find sibling with
        | None -> []
        | Some h ->
          let pristine = c.fault = "pristine" && c.adversary = "calm" in
          List.filter_map
            (fun metric ->
              match (outcome_float r metric, outcome_float h metric) with
              | Some p, Some hv ->
                let denom = Float.max (Float.abs p) (Float.abs hv) in
                let diff =
                  if denom <= 0. then 0. else Float.abs (p -. hv) /. denom
                in
                let gated = pristine && metric = "good_received_bytes" in
                Some
                  {
                    pr_base =
                      String.concat "-" [ c.topo; c.fault; c.adversary;
                                          c.placement ];
                    pr_metric = metric;
                    pr_packet = p;
                    pr_hybrid = hv;
                    pr_diff = diff;
                    pr_gated = gated;
                    pr_ok = (not gated) || diff <= agreement_threshold;
                  }
              | _ -> None)
            [ "good_received_bytes"; "attack_received_bytes" ])
    results

let run ?(only = []) ?(smoke = false) ?(bless = false)
    ?(shards = 1) ~goldens_dir () =
  if shards < 1 then invalid_arg "Matrix.run: shards must be >= 1";
  let selected =
    List.filter
      (fun c ->
        (only = [] || List.mem c.id only) && ((not smoke) || c.smoke))
      cells
  in
  if bless && not (Sys.file_exists goldens_dir) then Sys.mkdir goldens_dir 0o755;
  let results =
    List.map
      (fun c ->
        let r = run_cell ~shards c in
        let path = Filename.concat goldens_dir (c.id ^ ".json") in
        let status =
          if bless then begin
            write_file path r.cr_doc;
            Blessed
          end
          else if not (Sys.file_exists path) then Missing
          else if read_file path = r.cr_doc then Match
          else Drift
        in
        { r with cr_status = status })
      selected
  in
  let pairs = pair_up results in
  let count st = List.length (List.filter (fun r -> r.cr_status = st) results) in
  {
    s_results = results;
    s_pairs = pairs;
    s_drifted = count Drift;
    s_missing = count Missing;
    s_disagreements =
      List.length (List.filter (fun p -> p.pr_gated && not p.pr_ok) pairs);
  }

(* --- reporting ------------------------------------------------------------- *)

let status_name = function
  | Match -> "match"
  | Drift -> "DRIFT"
  | Missing -> "MISSING"
  | Blessed -> "blessed"

let cells_table ~title s =
  let t =
    Table.create ~title
      ~columns:
        [ "cell"; "golden"; "wall (s)"; "alloc MB"; "peak queue"; "events" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.cr_cell.id;
          status_name r.cr_status;
          Printf.sprintf "%.3f" r.cr_perf.wall;
          Printf.sprintf "%.1f" (r.cr_perf.alloc_bytes /. 1e6);
          string_of_int r.cr_perf.peak_queue;
          string_of_int r.cr_perf.engine_events;
        ])
    s.s_results;
  t

let pairs_table ~title s =
  let t =
    Table.create ~title
      ~columns:[ "pair"; "metric"; "packet"; "hybrid"; "diff %"; "verdict" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.pr_base;
          p.pr_metric;
          Printf.sprintf "%.0f" p.pr_packet;
          Printf.sprintf "%.0f" p.pr_hybrid;
          Printf.sprintf "%.1f" (100. *. p.pr_diff);
          (if not p.pr_gated then "info"
           else if p.pr_ok then "AGREE"
           else "DISAGREE");
        ])
    s.s_pairs;
  t

let print_summary s =
  Table.print (cells_table ~title:"golden-trace matrix" s);
  if s.s_pairs <> [] then
    Table.print (pairs_table ~title:"packet vs hybrid engine agreement" s);
  Printf.printf "%d cells, %d drifted, %d missing, %d disagreements\n"
    (List.length s.s_results) s.s_drifted s.s_missing s.s_disagreements

let bench_json s =
  Json.Obj
    [
      ("schema", Json.String "aitf.matrix-bench/1");
      ( "cells",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("id", Json.String r.cr_cell.id);
                   ("wall_seconds", fl r.cr_perf.wall);
                   ("alloc_bytes", fl r.cr_perf.alloc_bytes);
                   ("peak_queue_depth", it r.cr_perf.peak_queue);
                   ("engine_events", it r.cr_perf.engine_events);
                   ("span_digest", Json.String r.cr_digest);
                   ("golden", Json.String (status_name r.cr_status));
                 ])
             s.s_results) );
      ( "total_wall_seconds",
        fl
          (List.fold_left
             (fun acc r -> acc +. r.cr_perf.wall)
             0. s.s_results) );
      ("drifted", it s.s_drifted);
      ("missing", it s.s_missing);
      ("disagreements", it s.s_disagreements);
    ]
