(* Tests for causal span tracing, the packet flight recorder and the engine
   profiler — plus the PR's acceptance criteria: a traced two-gateway chain
   yields a span forest whose stages cover the request's life, the
   Verification span equals the registry's time-to-filter observation, the
   Chrome export is valid JSON, and a traced run is bit-identical to an
   untraced one. *)

module Span = Aitf_obs.Span
module Flight = Aitf_obs.Flight
module Profile = Aitf_obs.Profile
module Json = Aitf_obs.Json
module Metrics = Aitf_obs.Metrics
module Sim = Aitf_engine.Sim
module Scenarios = Aitf_workload.Scenarios
module Chain = Aitf_topo.Chain
open Aitf_core

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string
let checkf = check (Alcotest.float 1e-9)

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let contains ~sub s =
  let ls = String.length s and lx = String.length sub in
  let rec go i = i + lx <= ls && (String.sub s i lx = sub || go (i + 1)) in
  go 0

(* --- span collector mechanics ---------------------------------------------- *)

(* A fresh world recording into a fresh collector, attached before the
   world is created (the snapshot rule). Recording calls stamp the world's
   clock, which the tests move with [Sim.advance_to]. *)
let with_collector f =
  let t = Span.create () in
  Span.attach t;
  let sim = Fun.protect ~finally:Span.detach Sim.create in
  f sim t

let test_mint_monotone () =
  let sim = Sim.create () in
  let a = Span.mint sim in
  let b = Span.mint sim in
  checki "a fresh world mints from 1" 1 a;
  checkb "minting increments" true (b = a + 1);
  (* minting is independent of attachment *)
  with_collector (fun _ _ -> ());
  let c = Span.mint sim in
  checkb "still monotone" true (c = b + 1);
  let shard = Sim.fork sim ~shard:1 in
  checki "a shard world mints from its base" ((2 lsl 24) + 1)
    (Span.mint shard);
  checkb "... and its parent carries on" true (Span.mint sim = c + 1)

let test_span_lifecycle () =
  with_collector (fun sim t ->
      let corr = Span.mint sim in
      Sim.advance_to sim 1.0;
      Span.root sim ~corr ~flow:"a -> v" ~victim:"V";
      Span.start sim ~corr ~stage:Span.Detect ~node:"V";
      Sim.advance_to sim 1.05;
      Span.event sim ~corr "spotted";
      Sim.advance_to sim 1.1;
      Span.finish sim ~corr ~stage:Span.Detect;
      Span.start sim ~corr ~stage:Span.Request ~node:"V";
      Sim.advance_to sim 1.2;
      Span.finish sim ~corr ~stage:Span.Request;
      Sim.advance_to sim 1.5;
      Span.complete sim ~corr;
      (* a corr with no root (forged request, corr 0) records nothing *)
      Sim.advance_to sim 9.;
      Span.start sim ~corr:0 ~stage:Span.Request ~node:"X";
      Sim.advance_to sim 9.1;
      Span.finish sim ~corr:0 ~stage:Span.Request;
      Sim.advance_to sim 9.2;
      Span.event sim ~corr:0 "ignored";
      checki "one root" 1 (List.length (Span.roots t));
      let r = Option.get (Span.find_root t corr) in
      checks "flow" "a -> v" r.Span.flow;
      checkf "completed" 1.5 (Option.get r.Span.completed_at);
      let spans = Span.spans_of r in
      checki "two spans" 2 (List.length spans);
      let d = List.hd spans in
      checks "opening order" "detect" (Span.stage_name d.Span.stage);
      checkf "duration" 0.1 (Option.get (Span.duration d));
      checki "one event" 1 (List.length (Span.events_of d));
      checki "completed roots" 1 (List.length (Span.completed_roots t)))

let test_finish_is_node_scoped () =
  with_collector (fun sim t ->
      let corr = Span.mint sim in
      Span.root sim ~corr ~flow:"f" ~victim:"V";
      (* the same stage open on two nodes at once, as during escalation *)
      Span.start sim ~corr ~stage:Span.Temp_filter ~node:"G1";
      Sim.advance_to sim 1.;
      Span.start sim ~corr ~stage:Span.Temp_filter ~node:"G2";
      Sim.advance_to sim 2.;
      Span.finish ~node:"G1" sim ~corr ~stage:Span.Temp_filter;
      let r = Option.get (Span.find_root t corr) in
      let by_node n =
        List.find (fun s -> s.Span.node = n) (Span.spans_of r)
      in
      checkb "G1 closed" true ((by_node "G1").Span.finished_at = Some 2.);
      checkb "G2 still open" true ((by_node "G2").Span.finished_at = None);
      (* finishing a stage nobody opened is a no-op, not an error *)
      Sim.advance_to sim 3.;
      Span.finish sim ~corr ~stage:Span.Verification)

let test_nonce_binding () =
  with_collector (fun sim t ->
      let corr = Span.mint sim in
      Span.root sim ~corr ~flow:"f" ~victim:"V";
      Span.bind_nonce sim ~corr ~nonce:77L;
      checkb "nonce resolves" true
        (Span.corr_of_nonce sim ~nonce:77L = Some corr);
      checkb "unknown nonce" true (Span.corr_of_nonce sim ~nonce:1L = None);
      Sim.advance_to sim 0.5;
      Span.event_by_nonce sim ~nonce:77L "fault-dropped-query";
      Span.event_by_nonce sim ~nonce:1L "ignored";
      let r = Option.get (Span.find_root t corr) in
      checki "event landed at root" 1 (List.length r.Span.root_events))

let test_slo_fires_on_breach () =
  with_collector (fun sim t ->
      let breached = ref [] in
      Span.set_slo t ~seconds:1.0 (fun r -> breached := r.Span.corr :: !breached);
      let fast = Span.mint sim in
      Span.root sim ~corr:fast ~flow:"fast" ~victim:"V";
      let slow = Span.mint sim in
      Span.root sim ~corr:slow ~flow:"slow" ~victim:"V";
      Sim.advance_to sim 0.5;
      Span.complete sim ~corr:fast;
      Sim.advance_to sim 2.0;
      Span.complete sim ~corr:slow;
      Sim.advance_to sim 9.0;
      Span.complete sim ~corr:slow;
      (* duplicate completion: first wins, no second callback *)
      checkb "only the slow root breached" true (!breached = [ slow ]);
      let r = Option.get (Span.find_root t slow) in
      checkf "first completion wins" 2.0 (Option.get r.Span.completed_at))

(* One line per moment, in time order; ties keep causal order (a span's
   finish before the next one's start); each event carries the node that
   recorded it, falling back to its span's node, then to the victim. *)
let test_timeline () =
  with_collector (fun sim t ->
      let corr = 7 in
      Span.root sim ~corr ~flow:"a -> v" ~victim:"V";
      Span.start sim ~corr ~stage:Span.Detect ~node:"V";
      Sim.advance_to sim 0.05;
      Span.root_event sim ~corr "at root";
      Sim.advance_to sim 0.1;
      Span.finish sim ~corr ~stage:Span.Detect;
      Span.start sim ~corr ~stage:Span.Temp_filter ~node:"G";
      Sim.advance_to sim 0.2;
      Span.event sim ~corr "in span";
      Sim.advance_to sim 0.3;
      Span.finish sim ~corr ~stage:Span.Temp_filter;
      Sim.advance_to sim 0.4;
      Span.event ~node:"H" sim ~corr "named node";
      checks "timeline"
        (String.concat ""
           [
             "    0.0000  [V           ] #7 open a -> v\n";
             "    0.0000  [V           ] #7 start detect\n";
             "    0.0500  [V           ] #7 at root\n";
             "    0.1000  [V           ] #7 finish detect\n";
             "    0.1000  [G           ] #7 start temp-filter\n";
             "    0.2000  [G           ] #7 in span\n";
             "    0.3000  [G           ] #7 finish temp-filter\n";
             "    0.4000  [H           ] #7 named node\n";
           ])
        (Span.timeline t))

(* --- shard merge ------------------------------------------------------------ *)

(* A world recording into collector [c] — one per shard of a parallel run. *)
let world_of c =
  let sim = Sim.create () in
  Sim.set sim Span.key (Some c);
  sim

let shard_collector () =
  let c = Span.create () in
  Span.set_allow_orphans c true;
  c

let test_root_event_ignores_open_spans () =
  with_collector (fun sim t ->
      let corr = Span.mint sim in
      Span.root sim ~corr ~flow:"f" ~victim:"V";
      Span.start sim ~corr ~stage:Span.Temp_filter ~node:"G";
      Sim.advance_to sim 0.1;
      Span.event sim ~corr "lands in the open span";
      (* root_event must bypass the open span: "newest open span" depends
         on which collector saw which opens, so shard-layout-invariant
         sources (fluid mirror, auditors) pin to the root instead *)
      Sim.advance_to sim 0.2;
      Span.root_event sim ~corr "lands at the root";
      let r = Option.get (Span.find_root t corr) in
      checki "root got exactly one" 1 (List.length r.Span.root_events);
      checks "the right one" "lands at the root"
        (List.hd r.Span.root_events).Span.label;
      let s = List.hd (Span.spans_of r) in
      checki "span kept its own" 1 (List.length (Span.events_of s)))

let test_merge_reunites_orphans () =
  let master = shard_collector () in
  let sa = shard_collector () and sb = shard_collector () in
  (* root + detect live in shard A... *)
  let a = world_of sa in
  Sim.advance_to a 1.0;
  Span.root a ~corr:7 ~flow:"a -> v" ~victim:"V";
  Span.start a ~corr:7 ~stage:Span.Detect ~node:"V";
  Sim.advance_to a 1.1;
  Span.finish a ~corr:7 ~stage:Span.Detect;
  (* ...while the attacker-side stages land in shard B as an orphan
     placeholder, plus a forged id with no real root anywhere *)
  let b = world_of sb in
  Sim.advance_to b 1.2;
  Span.start b ~corr:7 ~stage:Span.Verification ~node:"G";
  Sim.advance_to b 1.4;
  Span.finish b ~corr:7 ~stage:Span.Verification;
  Sim.advance_to b 1.5;
  Span.complete b ~corr:7;
  Sim.advance_to b 2.;
  Span.start b ~corr:999 ~stage:Span.Request ~node:"X";
  Sim.advance_to b 2.1;
  Span.finish b ~corr:999 ~stage:Span.Request;
  Span.merge_into master [ sa; sb ];
  checki "forged orphan dropped, real root kept" 1
    (List.length (Span.roots master));
  let r = List.hd (Span.roots master) in
  checki "re-keyed to 1" 1 r.Span.corr;
  checkb "no longer an orphan" false r.Span.orphan;
  checks "identity from the real root" "V" r.Span.victim;
  checkf "orphan's completion carried over" 1.5
    (Option.get r.Span.completed_at);
  let stages =
    List.map (fun s -> Span.stage_name s.Span.stage) (Span.spans_of r)
  in
  checkb "shard A's span present" true (List.mem "detect" stages);
  checkb "shard B's span present" true (List.mem "verification" stages)

let test_digest_shard_layout_invariant () =
  (* the same logical trace recorded two ways — sequentially with corr
     ids 1,2 and split over two shard collectors with stride-minted ids —
     must produce the same digest: canonical re-keying erases both the
     raw ids and the shard layout *)
  let record ~c1 ~c2 ~(into : int -> Span.t) =
    let w = world_of (into 0) in
    Span.root w ~corr:c1 ~flow:"f1" ~victim:"V";
    Span.start w ~corr:c1 ~stage:Span.Request ~node:"V";
    Sim.advance_to w 0.2;
    Span.finish w ~corr:c1 ~stage:Span.Request;
    let w = world_of (into 1) in
    Sim.advance_to w 0.1;
    Span.root w ~corr:c2 ~flow:"f2" ~victim:"W";
    Span.start w ~corr:c2 ~stage:Span.Detect ~node:"W";
    Sim.advance_to w 0.15;
    Span.finish w ~corr:c2 ~stage:Span.Detect;
    Sim.advance_to w 0.3;
    Span.root_event w ~corr:c1 "fluid-mirror-install";
    Sim.advance_to w 0.4;
    Span.complete w ~corr:c1
  in
  let seq = Span.create () in
  Span.set_allow_orphans seq true;
  record ~c1:1 ~c2:2 ~into:(fun _ -> seq);
  let master = shard_collector () in
  let sa = shard_collector () and sb = shard_collector () in
  record
    ~c1:((1 lsl 24) + 1)
    ~c2:((2 lsl 24) + 1)
    ~into:(fun i -> if i = 0 then sa else sb);
  Span.merge_into master [ sa; sb ];
  checks "digest invariant across layouts" (Span.digest seq)
    (Span.digest master);
  (* and the digest alone canonicalizes: the unmerged sequential
     collector with shifted raw ids fingerprints identically too *)
  let shifted = Span.create () in
  Span.set_allow_orphans shifted true;
  record ~c1:501 ~c2:502 ~into:(fun _ -> shifted);
  checks "digest independent of raw corr ids" (Span.digest seq)
    (Span.digest shifted)

(* --- flight recorder -------------------------------------------------------- *)

let test_flight_ring_bounds () =
  let f = Flight.create ~capacity:4 in
  Flight.attach f;
  let sim = Fun.protect ~finally:Flight.detach Sim.create in
  for i = 1 to 10 do
    Flight.note sim ~time:(float_of_int i) ~node:"A" ~link:"A->B"
      ~kind:(if i mod 2 = 0 then Flight.Enqueue else Flight.Dequeue)
      ~size:1000 ~queue_depth:i
  done;
  checki "total recorded" 10 (Flight.recorded f);
  let rs = Flight.records f in
  checki "ring keeps last 4" 4 (List.length rs);
  checkf "oldest retained is #7" 7. (List.hd rs).Flight.time;
  checkf "newest is #10" 10. (List.nth rs 3).Flight.time

let test_flight_note_without_recorder () =
  Flight.detach ();
  let sim = Sim.create () in
  checkb "disabled" false (Flight.enabled sim);
  (* one branch, no crash *)
  Flight.note sim ~time:0. ~node:"A" ~link:"A->B" ~kind:(Flight.Drop Aitf_obs.Ledger.Queue_overflow)
    ~size:1 ~queue_depth:0

(* --- engine profiler -------------------------------------------------------- *)

let test_profiler_buckets_by_label () =
  let p = Profile.create () in
  Profile.attach p;
  Fun.protect ~finally:Profile.detach (fun () ->
      let sim = Sim.create () in
      for i = 1 to 5 do
        ignore (Sim.after ~label:"tick" sim (float_of_int i) ignore)
      done;
      ignore (Sim.after sim 0.5 ignore);
      Sim.run ~until:10. sim);
  checki "all events timed" 6 (Profile.events p);
  checkb "peak queue depth seen" true (Profile.peak_pending p >= 5);
  let labels = List.map fst (Profile.buckets p) in
  checkb "tick bucket" true (List.mem "tick" labels);
  checkb "unlabelled lands in other" true (List.mem "other" labels);
  let tick_events = fst (List.assoc "tick" (Profile.buckets p)) in
  checki "tick count" 5 tick_events;
  checkb "report mentions tick" true (contains ~sub:"tick" (Profile.report p))

(* --- the traced two-gateway chain ------------------------------------------- *)

let two_gw_params =
  {
    Scenarios.default_chain with
    Scenarios.spec = { Chain.default_spec with Chain.depth = 1 };
    config = Config.with_timescale Config.default 0.1;
    duration = 6.;
    attacker_strategy = Policy.Complies;
  }

let run_traced ?(params = two_gw_params) () =
  let t = Span.create () in
  Span.attach t;
  let r =
    Fun.protect ~finally:Span.detach (fun () -> Scenarios.run_chain params)
  in
  (t, r)

let stage_names root =
  List.map (fun s -> Span.stage_name s.Span.stage) (Span.spans_of root)

let test_chain_span_forest () =
  let t, _r = run_traced () in
  let completed = Span.completed_roots t in
  checkb "at least one completed request" true (completed <> []);
  let root = List.hd completed in
  let names = stage_names root in
  List.iter
    (fun stage -> checkb ("has " ^ stage) true (List.mem stage names))
    [
      "detect";
      "request";
      "temp-filter";
      "verification";
      "counter-request";
      "permanent-filter";
    ];
  (* every span belongs to a real node and respects causality *)
  List.iter
    (fun s ->
      checkb "node named" true (s.Span.node <> "");
      checkb "starts after root opened" true
        (s.Span.started_at >= root.Span.opened_at);
      match Span.duration s with
      | Some d -> checkb "non-negative duration" true (d >= 0.)
      | None -> ())
    (Span.spans_of root);
  (* completion = the long filter landing at the attacker side *)
  checkb "completed after opening" true
    (Option.get root.Span.completed_at > root.Span.opened_at)

let test_verification_equals_time_to_filter () =
  (* run with both a registry and the collector attached: the sum of
     Verification span durations must equal the sum of every
     gateway.*.time_to_filter observation *)
  let reg = Metrics.create () in
  let t, _r =
    Metrics.with_attached reg (fun () -> run_traced ())
  in
  let ttf_count, ttf_sum =
    List.fold_left
      (fun (c, s) name ->
        if has_suffix ~suffix:".time_to_filter" name then
          match Metrics.value reg name with
          | Some (Metrics.Histogram { count; sum; _ }) -> (c + count, s +. sum)
          | _ -> (c, s)
        else (c, s))
      (0, 0.) (Metrics.names reg)
  in
  checkb "registry observed time-to-filter" true (ttf_count > 0);
  let ver_durations =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun s ->
            if s.Span.stage = Span.Verification then Span.duration s else None)
          (Span.spans_of r))
      (Span.roots t)
  in
  checki "one span per observation" ttf_count (List.length ver_durations);
  checkf "verification duration = time-to-filter" ttf_sum
    (List.fold_left ( +. ) 0. ver_durations)

let test_chrome_trace_is_valid_json () =
  let t, r = run_traced () in
  let json = Span.to_chrome_trace ~now:r.Scenarios.params.Scenarios.duration t in
  let s = Json.to_string json in
  match Json.parse s with
  | Error e -> Alcotest.fail ("export does not parse: " ^ e)
  | Ok parsed ->
    let events =
      Option.get (Json.get_list (Option.get (Json.member "traceEvents" parsed)))
    in
    checkb "has events" true (events <> []);
    List.iter
      (fun e ->
        let field name = Json.member name e in
        checkb "ph present" true
          (match field "ph" with
          | Some (Json.String ("X" | "i" | "M")) -> true
          | _ -> false);
        checkb "pid present" true (field "pid" <> None);
        match field "ph" with
        | Some (Json.String "X") ->
          checkb "complete event has ts+dur" true
            (field "ts" <> None && field "dur" <> None)
        | _ -> ())
      events

let digest (r : Scenarios.chain_result) =
  ( r.Scenarios.events_processed,
    r.Scenarios.attack_received_bytes,
    r.Scenarios.attack_offered_bytes,
    r.Scenarios.r_measured,
    r.Scenarios.requests_sent,
    r.Scenarios.escalations,
    r.Scenarios.faults_injected )

let test_tracing_does_not_perturb () =
  (* faults + retries exercise the nonce-annotation and retransmit event
     paths; the traced run must execute the same event sequence anyway *)
  let params =
    {
      two_gw_params with
      Scenarios.duration = 8.;
      ctrl_faults = [ Aitf_fault.Fault.Loss 0.3 ];
      config = { two_gw_params.Scenarios.config with Config.ctrl_retries = 2 };
    }
  in
  let untraced = Scenarios.run_chain params in
  let t, traced = run_traced ~params () in
  let flight = Flight.create ~capacity:64 in
  Flight.attach flight;
  let traced_and_recorded =
    Fun.protect ~finally:Flight.detach (fun () ->
        let t2 = Span.create () in
        Span.attach t2;
        Fun.protect ~finally:Span.detach (fun () -> Scenarios.run_chain params))
  in
  checkb "span forest non-trivial" true (Span.roots t <> []);
  checkb "flight recorder saw traffic" true (Flight.recorded flight > 0);
  checkb "traced = untraced" true (digest untraced = digest traced);
  checkb "traced+flight = untraced" true
    (digest untraced = digest traced_and_recorded)

let () =
  Alcotest.run "aitf_span"
    [
      ( "collector",
        [
          Alcotest.test_case "mint monotone" `Quick test_mint_monotone;
          Alcotest.test_case "lifecycle" `Quick test_span_lifecycle;
          Alcotest.test_case "finish is node-scoped" `Quick
            test_finish_is_node_scoped;
          Alcotest.test_case "nonce binding" `Quick test_nonce_binding;
          Alcotest.test_case "slo fires on breach" `Quick
            test_slo_fires_on_breach;
          Alcotest.test_case "timeline" `Quick test_timeline;
        ] );
      ( "merge",
        [
          Alcotest.test_case "root_event ignores open spans" `Quick
            test_root_event_ignores_open_spans;
          Alcotest.test_case "merge reunites orphans" `Quick
            test_merge_reunites_orphans;
          Alcotest.test_case "digest is shard-layout invariant" `Quick
            test_digest_shard_layout_invariant;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring bounds" `Quick test_flight_ring_bounds;
          Alcotest.test_case "note without recorder" `Quick
            test_flight_note_without_recorder;
        ] );
      ( "profile",
        [
          Alcotest.test_case "buckets by label" `Quick
            test_profiler_buckets_by_label;
        ] );
      ( "chain",
        [
          Alcotest.test_case "span forest covers the stages" `Slow
            test_chain_span_forest;
          Alcotest.test_case "verification = time-to-filter" `Slow
            test_verification_equals_time_to_filter;
          Alcotest.test_case "chrome trace is valid json" `Slow
            test_chrome_trace_is_valid_json;
          Alcotest.test_case "tracing does not perturb the run" `Slow
            test_tracing_does_not_perturb;
        ] );
    ]
