(* Parallel engine: conservative message ordering under random shard
   topologies, multi-shard determinism and 1-vs-N agreement, zero-lookahead
   rejection, and one run context per world. *)

module Sim = Aitf_engine.Sim
module Sched = Aitf_parallel.Sched
module Series = Aitf_stats.Series
module As_scenario = Aitf_workload.As_scenario
module As_graph = Aitf_topo.As_graph
module Config = Aitf_core.Config

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- internet scenario: determinism and shard-count agreement --------------- *)

let small_internet shards =
  {
    As_scenario.default with
    As_scenario.as_spec =
      { As_graph.default_spec with As_graph.domains = 80; tier1 = 3 };
    as_config = { Config.default with Config.engine = Config.Hybrid };
    as_seed = 11;
    as_duration = 6.;
    as_sources = 2_000;
    as_attack_domains = 6;
    as_legit_domains = 3;
    as_legit_sources = 600;
    as_sample_period = 0.5;
    as_shards = shards;
  }

let internet_fingerprint (r : As_scenario.result) =
  ( r.As_scenario.r_good_offered_bytes,
    r.As_scenario.r_good_received_bytes,
    r.As_scenario.r_attack_received_bytes,
    r.As_scenario.r_requests_sent,
    r.As_scenario.r_filters_installed,
    r.As_scenario.r_slots_peak,
    r.As_scenario.r_events,
    Series.points r.As_scenario.r_victim_rate )

let test_internet_multishard_deterministic () =
  (* Same (seed, shards) must give the identical fingerprint on every
     run, whatever the OS does to the worker domains. *)
  let a = As_scenario.run (small_internet 3) in
  let b = As_scenario.run (small_internet 3) in
  checkb "3-shard runs are reproducible" true
    (internet_fingerprint a = internet_fingerprint b);
  checki "r_shards echoes the request" 3 a.As_scenario.r_shards;
  let st = a.As_scenario.r_sched_stats in
  checkb "shard windows executed" true (st.Sched.windows > 0);
  checkb "cross-shard messages flowed" true (st.Sched.messages > 0)

let test_internet_shard_agreement () =
  (* Across shard counts the event interleaving differs (global-first tie
     rule, window boundaries), so outcomes are only statistically equal:
     hold the E17-style 10% agreement tolerance on the goodput scalar. *)
  let seq = As_scenario.run (small_internet 1) in
  let par = As_scenario.run (small_internet 4) in
  let rel a b = if a = 0. then Float.abs b else Float.abs ((b -. a) /. a) in
  checkb "good received within 10%" true
    (rel seq.As_scenario.r_good_received_bytes
       par.As_scenario.r_good_received_bytes
    <= 0.10);
  checkb "1-shard stats are all zero" true
    (seq.As_scenario.r_sched_stats
    = {
        Sched.windows = 0;
        global_batches = 0;
        messages = 0;
        deferred = 0;
        stall_seconds = 0.;
      })

(* --- conservative ordering property ------------------------------------------ *)

(* Random shard topologies driven directly through the Sched API: every
   shard runs a self-rescheduling local ticker and posts cross-shard
   messages at [now + lookahead]. The conservative invariants: each
   world's execution times are non-decreasing (no event runs in its
   world's past), every message executes at exactly its timestamp, and
   nothing is lost. Failures would surface either as a broken log order
   or as [Sim.at] refusing a past timestamp. *)

type exec = { x_shard : int; x_time : float; x_kind : [ `Local | `Msg ] }

let run_random_topology ~shards ~lookaheads ~ticks ~until =
  let sched = Sched.create ~shards () in
  for src = 0 to shards - 1 do
    for dst = 0 to shards - 1 do
      if src <> dst then
        Sched.register_channel sched ~src ~dst ~lookahead:lookaheads.(src).(dst)
    done
  done;
  let log = Array.make shards [] in
  (* Bumped from every worker domain, hence atomic. *)
  let expected = Atomic.make 0 and executed = Atomic.make 0 in
  let record shard kind sim =
    log.(shard) <-
      { x_shard = shard; x_time = Sim.now sim; x_kind = kind } :: log.(shard);
    Atomic.incr executed
  in
  for s = 0 to shards - 1 do
    let sim = Sched.shard_sim sched s in
    let period = 0.01 +. (0.003 *. float_of_int (s + 1)) in
    let rec tick i =
      if Sim.now sim +. period <= until then begin
        Atomic.incr expected;
        ignore
          (Sim.after sim period (fun () ->
               record s `Local sim;
               (* Round-robin target; the message leaves with exactly the
                  channel's latency, the tightest legal timestamp. *)
               let dst = (s + 1 + (i mod (shards - 1))) mod shards in
               let t = Sim.now sim +. lookaheads.(s).(dst) in
               if t <= until then begin
                 Atomic.incr expected;
                 Sched.post sched ~dst ~time:t (fun () ->
                     record dst `Msg (Sched.shard_sim sched dst))
               end;
               tick (i + 1)))
      end
    in
    ignore (tick 0);
    for k = 1 to ticks do
      Atomic.incr expected;
      ignore
        (Sim.at sim
           (0.005 *. float_of_int (k * (s + 1)))
           (fun () -> record s `Local sim))
    done
  done;
  Sched.run ~until sched;
  (Array.map List.rev log, Atomic.get expected, Atomic.get executed)

let ordering_property (shards, las) =
  let lookaheads = Array.of_list (List.map Array.of_list las) in
  let logs, expected, executed =
    run_random_topology ~shards ~lookaheads ~ticks:5 ~until:1.0
  in
  let monotone l =
    let rec go = function
      | a :: (b :: _ as rest) -> a.x_time <= b.x_time && go rest
      | _ -> true
    in
    go l
  in
  Array.for_all monotone logs && expected = executed

let gen_topology =
  QCheck.Gen.(
    int_range 2 4 >>= fun shards ->
    let cell = map (fun v -> 0.005 +. (float_of_int v /. 1000.)) (int_range 1 80) in
    list_size (return shards) (list_size (return shards) cell)
    >>= fun las -> return (shards, las))

let ordering_qcheck =
  QCheck.Test.make ~name:"cross-shard messages never run early" ~count:30
    (QCheck.make
       ~print:(fun (n, las) ->
         Printf.sprintf "%d shards, lookaheads %s" n
           (String.concat ";"
              (List.map
                 (fun row ->
                   "[" ^ String.concat "," (List.map string_of_float row) ^ "]")
                 las)))
       gen_topology)
    ordering_property

let test_random_topology_deterministic () =
  let lookaheads = [| [| 0.; 0.013 |]; [| 0.021; 0. |] |] in
  let run () = run_random_topology ~shards:2 ~lookaheads ~ticks:4 ~until:2.0 in
  let l1, e1, x1 = run () in
  let l2, e2, x2 = run () in
  checkb "same logs across runs" true (l1 = l2);
  checki "same expected count" e1 e2;
  checki "all executed" x1 e1;
  checki "all executed (2nd run)" x2 e2

(* --- zero lookahead is an error, not a deadlock ------------------------------ *)

let test_zero_lookahead_rejected () =
  let sched = Sched.create ~shards:2 () in
  let rejects la =
    match Sched.register_channel sched ~src:0 ~dst:1 ~lookahead:la with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  checkb "zero lookahead rejected" true (rejects 0.);
  checkb "negative lookahead rejected" true (rejects (-0.5));
  checkb "nan lookahead rejected" true (rejects Float.nan);
  checkb "infinite lookahead rejected" true (rejects Float.infinity);
  checkb "self-channel rejected" true
    (match Sched.register_channel sched ~src:1 ~dst:1 ~lookahead:0.1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  checkb "out-of-range shard rejected" true
    (match Sched.register_channel sched ~src:0 ~dst:2 ~lookahead:0.1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  checkb "shards < 1 rejected" true
    (match Sched.create ~shards:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- one run context per world ---------------------------------------------- *)

module Span = Aitf_obs.Span
module Flight = Aitf_obs.Flight
module Profile = Aitf_obs.Profile

(* A Figure-1 chain in a fresh world: a complying attacker flooding the
   victim from [start], so links, gateways and the victim all record. *)
let chain_world ~start =
  let module Chain = Aitf_topo.Chain in
  let module Host_agent = Aitf_core.Host_agent in
  let sim = Sim.create () in
  let topo = Chain.build sim Chain.default_spec in
  let d =
    Chain.deploy ~attacker_strategy:Aitf_core.Policy.Complies
      ~config:(Config.with_timescale Config.default 0.1)
      ~rng:(Aitf_engine.Rng.create ~seed:1) topo
  in
  let (_ : Aitf_workload.Traffic.t) =
    Aitf_workload.Traffic.cbr
      ~gate:(Host_agent.Attacker.gate d.Chain.attacker_agent)
      ~start ~attack:true ~flow_id:1 ~rate:2e6
      ~dst:topo.Chain.victim.Aitf_net.Node.addr topo.Chain.net
      topo.Chain.attacker
  in
  sim

let horizon = 5.0

type context = { sp : Span.t; fl : Flight.t; pr : Profile.t }

(* Attach a fresh collector, ring and profiler around [f], then detach
   again: the worlds [f] creates keep what they copied. *)
let with_context f =
  let c =
    {
      sp = Span.create ();
      fl = Flight.create ~capacity:4096;
      pr = Profile.create ();
    }
  in
  Span.attach c.sp;
  Flight.attach c.fl;
  Profile.attach c.pr;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Profile.detach ();
        Flight.detach ();
        Span.detach ())
      f
  in
  (r, c)

let world_with_context ~start = with_context (fun () -> chain_world ~start)

let bucket_counts pr =
  List.sort compare (List.map (fun (l, (n, _)) -> (l, n)) (Profile.buckets pr))

let test_two_worlds_two_contexts () =
  (* Reference runs, each world alone. *)
  let run_alone ~start =
    let sim, c = world_with_context ~start in
    Sim.run ~until:horizon sim;
    c
  in
  let ref_a = run_alone ~start:1.0 and ref_b = run_alone ~start:1.5 in
  (* The same two worlds side by side, plus one created before any
     attach, their events interleaved one at a time. *)
  let bare = chain_world ~start:1.0 in
  let sim_a, a = world_with_context ~start:1.0 in
  let sim_b, b = world_with_context ~start:1.5 in
  let step sim =
    match Sim.next_time sim with
    | Some t when t <= horizon -> Sim.step sim
    | Some _ | None -> false
  in
  let rec interleave () =
    let ra = step sim_a in
    let rb = step sim_b in
    let rc = step bare in
    if ra || rb || rc then interleave ()
  in
  interleave ();
  List.iter
    (fun (name, sim, c, r) ->
      let roots = Span.roots c.sp in
      checkb (name ^ ": spans recorded") true (roots <> []);
      Alcotest.(check string)
        (name ^ ": collector holds only its world's trace")
        (Span.digest r.sp) (Span.digest c.sp);
      checki (name ^ ": corr ids start at 1") 1 (List.hd roots).Span.corr;
      checkb (name ^ ": ring holds only its world's records") true
        (Flight.records c.fl <> []
        && Flight.records c.fl = Flight.records r.fl);
      checki (name ^ ": profiler timed only its world's events")
        (Sim.events_processed sim) (Profile.events c.pr);
      checkb (name ^ ": profiler buckets match the lone run") true
        (bucket_counts c.pr = bucket_counts r.pr))
    [ ("A", sim_a, a, ref_a); ("B", sim_b, b, ref_b) ];
  checkb "the worlds differ" true (Span.digest a.sp <> Span.digest b.sp);
  checkb "a world created before attach has no collector" false
    (Span.enabled bare);
  checkb "... no ring" false (Flight.enabled bare);
  checkb "... and no profiler" false (Profile.enabled bare);
  checkb "... yet it ran" true (Sim.events_processed bare > 0);
  (* A probe removed from one world stops counting there only. *)
  let before = Profile.events a.pr in
  Sim.set sim_a Sim.profiler None;
  Sim.run ~until:(horizon +. 1.) sim_a;
  Sim.run ~until:(horizon +. 1.) sim_b;
  checkb "both worlds ran on" true
    (Profile.events b.pr > Profile.events ref_b.pr);
  checki "removed probe sees nothing further" before (Profile.events a.pr);
  checki "the other world's probe still counts" (Sim.events_processed sim_b)
    (Profile.events b.pr);
  checki "merge sums events"
    (Profile.events a.pr + Profile.events b.pr)
    (Profile.events (Profile.merge [ a.pr; b.pr ]))

(* --- shard worlds fork the run context ------------------------------------------ *)

let test_shard_worlds_fork_context () =
  let sched, c = with_context (fun () -> Sched.create ~shards:2 ()) in
  let worlds = Sched.global sched :: Array.to_list (Sched.shard_sims sched) in
  let distinct name get =
    let vs = List.map get worlds in
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b ->
            if i < j then
              checkb
                (Printf.sprintf "%s: worlds %d and %d hold different ones" name
                   i j)
                true (a != b))
          vs)
      vs
  in
  let some name = function
    | Some v -> v
    | None -> Alcotest.fail (name ^ " missing from a world")
  in
  distinct "collector" (fun w -> some "collector" (Sim.get w Span.key));
  distinct "ring" (fun w -> some "ring" (Sim.get w Flight.key));
  distinct "probe" (fun w -> some "probe" (Sim.get w Sim.profiler));
  checkb "the global world keeps the caller's collector" true
    (some "collector" (Sim.get (Sched.global sched) Span.key) == c.sp);
  checkb "... and the caller's ring" true
    (some "ring" (Sim.get (Sched.global sched) Flight.key) == c.fl);
  (* Corr-id bases: each world mints from its own 2^24-wide range. *)
  let ranges = List.map (fun w -> Span.mint w lsr 24) worlds in
  checki "corr-id ranges are disjoint" (List.length worlds)
    (List.length (List.sort_uniq compare ranges))

let test_profiled_sharded_run_counts_every_world () =
  let r, c = with_context (fun () -> As_scenario.run (small_internet 2)) in
  checki "the caller's profiler timed every world's events"
    r.As_scenario.r_events (Profile.events c.pr)

(* A second run joins only what the shards recorded since the first. *)
let test_second_run_joins_once () =
  let sched, c = with_context (fun () -> Sched.create ~shards:2 ()) in
  Sched.register_channel sched ~src:0 ~dst:1 ~lookahead:0.05;
  Sched.register_channel sched ~src:1 ~dst:0 ~lookahead:0.05;
  let notes = Atomic.make 0 in
  Array.iter
    (fun sim ->
      for k = 1 to 20 do
        ignore
          (Sim.at sim (0.1 *. float_of_int k) (fun () ->
               Atomic.incr notes;
               Flight.note sim ~time:(Sim.now sim) ~node:"n" ~link:"l"
                 ~kind:Flight.Enqueue ~size:1 ~queue_depth:0))
      done)
    (Sched.shard_sims sched);
  Sched.run ~until:1.0 sched;
  checki "first run: every note joined once" (Atomic.get notes)
    (Flight.recorded c.fl);
  checki "first run: every event profiled once" (Sched.events_processed sched)
    (Profile.events c.pr);
  Sched.run ~until:3.0 sched;
  checki "notes made" 40 (Atomic.get notes);
  checki "second run: every note joined once" 40 (Flight.recorded c.fl);
  checki "second run: every event profiled once"
    (Sched.events_processed sched) (Profile.events c.pr)

(* --- guard rails -------------------------------------------------------------- *)

let test_bad_shards_rejected () =
  checkb "as_shards = 0 rejected" true
    (match As_scenario.run { (small_internet 1) with As_scenario.as_shards = 0 }
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- observability composes with sharding ------------------------------------- *)

let traced_run p =
  let sp = Span.create () in
  Span.attach sp;
  Fun.protect ~finally:Span.detach (fun () -> (As_scenario.run p, sp))

let test_traced_equals_untraced () =
  (* Recording never schedules events and never consumes randomness, and
     workers mint from their stride whether or not a collector is
     attached — so tracing must not move a single byte at any shard
     count. *)
  List.iter
    (fun shards ->
      let plain = As_scenario.run (small_internet shards) in
      let traced, sp = traced_run (small_internet shards) in
      checkb
        (Printf.sprintf "traced = untraced at %d shard(s)" shards)
        true
        (internet_fingerprint plain = internet_fingerprint traced);
      checkb
        (Printf.sprintf "spans were actually collected at %d shard(s)" shards)
        true
        (Span.roots sp <> []))
    [ 1; 4 ]

let test_span_digest_shard_invariant () =
  (* The canonical digest must not depend on how the domains were
     sharded: same seed, same trace. *)
  let digest shards =
    let _, sp = traced_run (small_internet shards) in
    Span.digest sp
  in
  let d1 = digest 1 and d2 = digest 2 and d4 = digest 4 in
  Alcotest.(check string) "digest: 1 shard = 2 shards" d1 d2;
  Alcotest.(check string) "digest: 1 shard = 4 shards" d1 d4

(* A sharded run lends the caller's collector to orphan mode only for the
   run: afterwards it ignores unknown correlation ids again. *)
let test_master_collector_restored () =
  let _, sp = traced_run (small_internet 2) in
  let roots = List.length (Span.roots sp) in
  Span.attach sp;
  let sim = Fun.protect ~finally:Span.detach Sim.create in
  Span.event sim ~corr:999_999 "stray";
  Span.root_event sim ~corr:999_999 "stray";
  checki "no root for an unknown corr" roots (List.length (Span.roots sp))

(* ... also when the sharded run raises. *)
let test_master_collector_restored_on_raise () =
  let sched, c = with_context (fun () -> Sched.create ~shards:2 ()) in
  ignore (Sim.at (Sched.shard_sim sched 0) 0.5 (fun () -> failwith "boom"));
  checkb "the run's failure reaches the caller" true
    (match Sched.run ~until:1.0 sched with
    | () -> false
    | exception Failure _ -> true);
  Span.event (Sched.global sched) ~corr:999_999 "stray";
  checki "no root for an unknown corr" 0 (List.length (Span.roots c.sp))

let test_contracts_compose_with_shards () =
  let p shards =
    { (small_internet shards) with As_scenario.as_contracts = true }
  in
  let a = As_scenario.run (p 4) in
  let b = As_scenario.run (p 4) in
  checkb "sharded contract runs are reproducible" true
    (internet_fingerprint a = internet_fingerprint b);
  match a.As_scenario.r_auditor with
  | None -> Alcotest.fail "auditor missing from sharded contract run"
  | Some aud ->
    let bud =
      match b.As_scenario.r_auditor with
      | Some x -> x
      | None -> Alcotest.fail "auditor missing from repeat run"
    in
    checkb "receipts flowed through the defer seam" true
      (Aitf_contract.Auditor.(count aud Receipt_verified) > 0);
    checki "auditor outcomes reproduce"
      (Aitf_contract.Auditor.(count aud Receipt_verified))
      (Aitf_contract.Auditor.(count bud Receipt_verified))

let test_flight_recorder_composes_with_shards () =
  let fl = Flight.create ~capacity:4096 in
  Flight.attach fl;
  let r =
    Fun.protect ~finally:Flight.detach (fun () ->
        As_scenario.run (small_internet 4))
  in
  checki "ran sharded" 4 r.As_scenario.r_shards;
  let rs = Flight.records fl in
  checkb "records were captured" true (rs <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Flight.time <= b.Flight.time && sorted rest
    | _ -> true
  in
  checkb "merged records are time-sorted" true (sorted rs)

(* A sharded run finds its SLO breaches when the span collectors join,
   after the run; the auto-dump must then hold the joined flight ring,
   not the parent's own (empty) one. *)
let test_sharded_slo_dump_holds_records () =
  let path = Filename.temp_file "aitf_flight" ".txt" in
  let fl = Flight.create ~capacity:64 in
  Flight.set_dump_path fl (Some path);
  let c = Span.create () in
  let breaches = ref 0 in
  Span.set_slo c ~seconds:1e-3 (fun _ ->
      incr breaches;
      Flight.auto_dump fl);
  Flight.attach fl;
  Span.attach c;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Span.detach ();
        Flight.detach ())
      (fun () -> As_scenario.run (small_internet 2))
  in
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  Sys.remove path;
  checki "ran sharded" 2 r.As_scenario.r_shards;
  checkb "breaches fired" true (!breaches > 0);
  checkb "dump holds records" true (List.length lines > 1);
  checki "dump holds the whole ring" (List.length (Flight.records fl))
    (List.length lines - 1)

let test_parallel_report_section () =
  let r = As_scenario.run (small_internet 3) in
  match r.As_scenario.r_parallel with
  | None -> Alcotest.fail "r_parallel missing at 3 shards"
  | Some j ->
    let module Json = Aitf_obs.Json in
    let int_field name =
      match Option.bind (Json.member name j) Json.get_float with
      | Some v -> int_of_float v
      | None -> Alcotest.fail ("parallel section missing " ^ name)
    in
    checki "shards echoed" 3 (int_field "shards");
    checkb "windows counted" true (int_field "windows" > 0);
    checkb "messages counted" true (int_field "messages" > 0);
    let seq = As_scenario.run (small_internet 1) in
    checkb "no parallel section at 1 shard" true
      (seq.As_scenario.r_parallel = None)

let () =
  Alcotest.run "aitf_parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "multi-shard runs reproduce" `Slow
            test_internet_multishard_deterministic;
          Alcotest.test_case "1 vs 4 shards agree within 10%" `Slow
            test_internet_shard_agreement;
          Alcotest.test_case "random topology reproduces" `Quick
            test_random_topology_deterministic;
        ] );
      ( "ordering",
        [
          QCheck_alcotest.to_alcotest ordering_qcheck;
          Alcotest.test_case "zero lookahead is an error" `Quick
            test_zero_lookahead_rejected;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "two worlds, two contexts" `Quick
            test_two_worlds_two_contexts;
          Alcotest.test_case "bad shard counts rejected" `Quick
            test_bad_shards_rejected;
          Alcotest.test_case "shard worlds fork the run context" `Quick
            test_shard_worlds_fork_context;
          Alcotest.test_case "second run joins once" `Quick
            test_second_run_joins_once;
        ] );
      ( "observability",
        [
          Alcotest.test_case "traced runs are bit-identical to untraced" `Slow
            test_traced_equals_untraced;
          Alcotest.test_case "span digest is shard-invariant" `Slow
            test_span_digest_shard_invariant;
          Alcotest.test_case "master collector leaves orphan mode" `Quick
            test_master_collector_restored;
          Alcotest.test_case "master collector leaves orphan mode on a raise"
            `Quick test_master_collector_restored_on_raise;
          Alcotest.test_case "contracts compose with shards" `Slow
            test_contracts_compose_with_shards;
          Alcotest.test_case "flight recorder composes with shards" `Quick
            test_flight_recorder_composes_with_shards;
          Alcotest.test_case "sharded slo dump holds records" `Quick
            test_sharded_slo_dump_holds_records;
          Alcotest.test_case "parallel report section" `Quick
            test_parallel_report_section;
          Alcotest.test_case "profiled sharded run counts every world" `Quick
            test_profiled_sharded_run_counts_every_world;
        ] );
    ]
