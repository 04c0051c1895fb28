(* Tests for aitf_obs: metrics registry, JSON codec, sampler, run reports. *)

module Json = Aitf_obs.Json
module Metrics = Aitf_obs.Metrics
module Sampler = Aitf_obs.Sampler
module Report = Aitf_obs.Report
module Sim = Aitf_engine.Sim
module Series = Aitf_stats.Series
module Scenarios = Aitf_workload.Scenarios

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string
let checkf = check (Alcotest.float 1e-9)

(* --- Metrics registry ------------------------------------------------------ *)

let test_register_and_sample () =
  let reg = Metrics.create () in
  let n = ref 0 in
  Metrics.register_counter reg "a.count" (fun () -> float_of_int !n);
  Metrics.register_gauge reg "a.level" ~unit_:"bytes" (fun () -> 7.5);
  checki "size" 2 (Metrics.size reg);
  checkb "registered" true (Metrics.registered reg "a.count");
  checkb "not registered" false (Metrics.registered reg "missing");
  n := 3;
  (match Metrics.value reg "a.count" with
  | Some (Metrics.Counter v) -> checkf "pull sees updates" 3. v
  | _ -> Alcotest.fail "expected counter");
  (match Metrics.value reg "a.level" with
  | Some (Metrics.Gauge v) -> checkf "gauge" 7.5 v
  | _ -> Alcotest.fail "expected gauge");
  checks "unit" "bytes" (Option.get (Metrics.unit_of reg "a.level"));
  check
    (Alcotest.list Alcotest.string)
    "names sorted" [ "a.count"; "a.level" ] (Metrics.names reg)

let test_double_registration_raises () =
  let reg = Metrics.create () in
  Metrics.register_counter reg "dup" (fun () -> 0.);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Metrics.register: duplicate metric \"dup\"") (fun () ->
      Metrics.register_gauge reg "dup" (fun () -> 0.));
  Alcotest.check_raises "empty name"
    (Invalid_argument "Metrics.register: empty name") (fun () ->
      Metrics.register_counter reg "" (fun () -> 0.))

let test_timer_observe () =
  let reg = Metrics.create () in
  let tm = Metrics.timer reg "ttf" in
  Metrics.observe tm 0.2;
  Metrics.observe tm 0.3;
  match Metrics.value reg "ttf" with
  | Some (Metrics.Histogram { count; sum; buckets }) ->
    checki "count" 2 count;
    checkf "sum" 0.5 sum;
    checki "bucket total" 2 (List.fold_left (fun acc (_, n) -> acc + n) 0 buckets)
  | _ -> Alcotest.fail "expected histogram"

let test_attach_detach () =
  Metrics.detach ();
  checkb "starts detached" true (Metrics.attached () = None);
  let detached = Sim.create () in
  checkb "timer when detached" true
    (Metrics.timer_if_attached detached "t" = None);
  let hit = ref false in
  Metrics.if_attached detached (fun _ -> hit := true);
  checkb "if_attached no-op" false !hit;
  let reg = Metrics.create () in
  Metrics.attach reg;
  Fun.protect ~finally:Metrics.detach (fun () ->
      let sim = Sim.create () in
      Metrics.if_attached sim (fun _ -> hit := true);
      checkb "if_attached runs" true !hit;
      checkb "timer registers" true (Metrics.timer_if_attached sim "t" <> None);
      checkb "timer named" true (Metrics.registered reg "t"));
  checkb "detached again" true (Metrics.attached () = None)

let test_with_attached_detaches_on_raise () =
  Metrics.detach ();
  let reg = Metrics.create () in
  let v = Metrics.with_attached reg (fun () -> Metrics.attached () <> None) in
  checkb "attached inside" true v;
  checkb "detached after return" true (Metrics.attached () = None);
  (* the reason with_attached exists: a raise mid-build must not leave the
     registry attached to poison the next run in the same process *)
  (try
     Metrics.with_attached reg (fun () -> failwith "mid-build explosion")
   with Failure _ -> ());
  checkb "detached after raise" true (Metrics.attached () = None)

let test_cross_domain_stress () =
  (* The parallel engine registers sched.* metrics and observes stall
     timers from whichever domain reaches the barrier first, while other
     shards' components may still be registering. The registry's internal
     table is mutex-protected; this hammers registration, timer
     observation and snapshotting from several domains at once and then
     checks nothing was lost or double-counted. *)
  let reg = Metrics.create () in
  let domains = 4 and gauges_per_domain = 50 and observations = 200 in
  let tm = Metrics.timer reg "stress.timer" in
  let go = Atomic.make false in
  let spawn d =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        for i = 0 to gauges_per_domain - 1 do
          Metrics.register_gauge reg
            (Printf.sprintf "stress.d%d.g%03d" d i)
            (fun () -> float_of_int (d * 1000 + i));
          (* interleave reads with writes to chase lost updates *)
          ignore (Metrics.snapshot reg)
        done;
        for _ = 1 to observations do
          Metrics.observe tm 0.01
        done)
  in
  let workers = List.init domains spawn in
  Atomic.set go true;
  List.iter Domain.join workers;
  checki "all gauges + the timer survived" ((domains * gauges_per_domain) + 1)
    (Metrics.size reg);
  (match Metrics.value reg "stress.timer" with
  | Some (Metrics.Histogram { count; sum; _ }) ->
    checki "no observation lost" (domains * observations) count;
    checkf "sum exact" (float_of_int (domains * observations) *. 0.01) sum
  | _ -> Alcotest.fail "expected histogram");
  (* every registered gauge still reads its own closure *)
  List.iter
    (fun name ->
      if name <> "stress.timer" then
        match Metrics.value reg name with
        | Some (Metrics.Gauge v) ->
          Scanf.sscanf name "stress.d%d.g%d" (fun d i ->
              checkf name (float_of_int ((d * 1000) + i)) v)
        | _ -> Alcotest.fail (name ^ ": expected gauge"))
    (Metrics.names reg)

(* --- JSON codec ------------------------------------------------------------ *)

let test_json_print_and_escape () =
  checks "escapes" {|{"a\"b":"x\n\t\\"}|}
    (Json.to_string ~minify:true (Json.Obj [ ("a\"b", Json.String "x\n\t\\") ]));
  checks "scalars" {|[null,true,42,1.5]|}
    (Json.to_string ~minify:true
       (Json.List [ Json.Null; Json.Bool true; Json.Int 42; Json.Float 1.5 ]));
  checks "nan is null" "null" (Json.to_string ~minify:true (Json.Float Float.nan))

let test_json_parse () =
  (match Json.parse {| {"k": [1, 2.5, "s", false, null]} |} with
  | Ok (Json.Obj [ ("k", Json.List [ a; b; c; d; e ]) ]) ->
    checkb "int" true (Json.equal a (Json.Int 1));
    checkb "float" true (Json.equal b (Json.Float 2.5));
    checkb "string" true (Json.equal c (Json.String "s"));
    checkb "bool" true (Json.equal d (Json.Bool false));
    checkb "null" true (Json.equal e Json.Null)
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e);
  checkb "garbage rejected" true (Result.is_error (Json.parse "{broken"));
  checkb "trailing rejected" true (Result.is_error (Json.parse "1 2"))

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("f", Json.Float 0.1);
        ("tiny", Json.Float 1.2345678901234e-12);
        ("neg", Json.Int (-7));
        ("nested", Json.List [ Json.Obj [ ("u", Json.String "\xc3\xa9") ] ]);
      ]
  in
  (* both pretty and minified forms must parse back to an equal value *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok v' -> checkb "round-trips" true (Json.equal v v')
      | Error e -> Alcotest.fail e)
    [ Json.to_string v; Json.to_string ~minify:true v ]

(* --- Sampler --------------------------------------------------------------- *)

let test_sampler_collects () =
  let sim = Sim.create () in
  let reg = Metrics.create () in
  let x = ref 0. in
  Metrics.register_gauge reg "x" (fun () -> !x);
  ignore (Sim.after sim 0.45 (fun () -> x := 5.));
  let sampler = Sampler.start ~interval:0.1 sim reg in
  Sim.run ~until:1.0 sim;
  checki "ticks" 10 (Sampler.ticks sampler);
  let s = Option.get (Sampler.find_series sampler "x") in
  checki "points" 10 (Series.length s);
  checkf "before change" 0. (List.assoc 0.4 (Series.points s));
  checkf "after change" 5. (List.assoc 0.5 (Series.points s));
  (* sim metrics were registered too *)
  checkb "sim metric" true (Metrics.registered reg "sim.events_processed");
  Sampler.stop sampler;
  Sampler.stop sampler (* idempotent *)

let run_sampled_chain () =
  let reg = Metrics.create () in
  Metrics.attach reg;
  Fun.protect ~finally:Metrics.detach (fun () ->
      let r =
        Scenarios.run_chain
          {
            Scenarios.default_chain with
            Scenarios.config =
              Aitf_core.Config.with_timescale Aitf_core.Config.default 0.1;
            duration = 10.;
          }
      in
      let sampler = Option.get r.Scenarios.sampler in
      (Metrics.snapshot reg, Sampler.series sampler))

let test_sampler_deterministic () =
  let snap1, series1 = run_sampled_chain () in
  let snap2, series2 = run_sampled_chain () in
  checkb "snapshots equal" true (snap1 = snap2);
  checki "same series count" (List.length series1) (List.length series2);
  List.iter2
    (fun (n1, s1) (n2, s2) ->
      checks "same name" n1 n2;
      checkb ("points equal: " ^ n1) true (Series.points s1 = Series.points s2))
    series1 series2

(* --- Run report ------------------------------------------------------------ *)

let test_report_round_trip () =
  let reg = Metrics.create () in
  let n = ref 2 in
  Metrics.register_counter reg "c" ~unit_:"packets" (fun () ->
      float_of_int !n);
  Metrics.register_gauge reg "g" (fun () -> 0.125);
  let tm = Metrics.timer reg "h" in
  Metrics.observe tm 0.01;
  let s = Series.create ~name:"c" () in
  Series.add s ~time:0.1 1.;
  Series.add s ~time:0.2 2.;
  let json =
    Report.make ~meta:[ ("seed", Json.Int 42) ] ~series:[ ("c", s) ] ~now:0.2
      reg
  in
  (* serialise, parse back, compare against a live snapshot *)
  match Json.parse (Json.to_string json) with
  | Error e -> Alcotest.fail e
  | Ok parsed -> (
    checkb "schema" true
      (Json.member "schema" parsed = Some (Json.String "aitf.run-report/1"));
    match Report.values_of_json parsed with
    | Error e -> Alcotest.fail e
    | Ok values -> checkb "values round-trip" true (values = Metrics.snapshot reg))

let test_report_csv () =
  let reg = Metrics.create () in
  Metrics.register_counter reg "c" ~unit_:"packets" (fun () -> 3.);
  let s = Series.create () in
  Series.add s ~time:0.5 1.5;
  checks "snapshot csv" "metric,kind,value,unit\nc,counter,3,packets\n"
    (Report.snapshot_csv reg);
  checks "series csv" "metric,time,value\nc,0.5,1.5\n"
    (Report.series_csv [ ("c", s) ])

let test_csv_escaping () =
  (* RFC 4180: fields with commas/quotes/newlines are quoted, embedded
     quotes doubled; plain fields stay byte-identical to the bare writer *)
  let s = Series.create () in
  Series.add s ~time:1. 2.;
  checks "comma quoted" "metric,time,value\n\"a,b\",1,2\n"
    (Report.series_csv [ ("a,b", s) ]);
  checks "quote doubled" "metric,time,value\n\"say \"\"hi\"\"\",1,2\n"
    (Report.series_csv [ ("say \"hi\"", s) ]);
  checks "newline quoted" "metric,time,value\n\"a\nb\",1,2\n"
    (Report.series_csv [ ("a\nb", s) ]);
  let reg = Metrics.create () in
  Metrics.register_gauge reg "g,auge" ~unit_:"m\"s" (fun () -> 1.);
  checks "snapshot csv escapes name and unit"
    "metric,kind,value,unit\n\"g,auge\",gauge,1,\"m\"\"s\"\n"
    (Report.snapshot_csv reg)

let test_report_deterministic () =
  (* the same registry state must serialise to byte-identical JSON and CSV:
     reports are diffed across runs by external tooling *)
  let build () =
    let reg = Metrics.create () in
    Metrics.register_counter reg "b.count" (fun () -> 3.);
    Metrics.register_gauge reg "a.level" (fun () -> 0.1);
    let tm = Metrics.timer reg "ttf" in
    Metrics.observe tm 0.25;
    Metrics.observe tm 0.5;
    let s = Series.create () in
    Series.add s ~time:0.1 1.;
    let json =
      Report.make ~meta:[ ("seed", Json.Int 1) ] ~series:[ ("a.level", s) ]
        ~now:1. reg
    in
    (Json.to_string json, Report.snapshot_csv reg, Report.series_csv [ ("a.level", s) ])
  in
  let j1, snap1, ser1 = build () in
  let j2, snap2, ser2 = build () in
  checks "json deterministic" j1 j2;
  checks "snapshot csv deterministic" snap1 snap2;
  checks "series csv deterministic" ser1 ser2;
  (* and the JSON side still round-trips through the parser *)
  match Json.parse j1 with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    checkb "parses back" true (Report.values_of_json parsed |> Result.is_ok)

(* --- Counters ----------------------------------------------------------------- *)

type decision = Sent | Dropped | Unlisted

let decision_name = function
  | Sent -> "sent"
  | Dropped -> "dropped"
  | Unlisted -> "unlisted"

(* One set counts, traces and registers each decision under one name. *)
let test_counter_set () =
  let module Counters = Aitf_obs.Counters in
  let module Span = Aitf_obs.Span in
  let reg = Metrics.create () and spans = Span.create () in
  Span.attach spans;
  let sim =
    Fun.protect ~finally:Span.detach (fun () ->
        Metrics.with_attached reg Sim.create)
  in
  let set =
    Counters.create ~node:"n" ~prefix:"agent.n" ~name:decision_name
      ~all:[ Sent; Dropped ] sim
  in
  let corr = Span.mint sim in
  Span.root sim ~corr ~flow:"f" ~victim:"n";
  Counters.bump set Sent;
  Counters.bump ~corr set Sent;
  Counters.bump_root ~corr set Dropped;
  Counters.bump set Dropped;
  checki "sent counted" 2 (Counters.count set Sent);
  checki "dropped counted" 2 (Counters.count set Dropped);
  checki "sum" 4 (Counters.sum set [ Sent; Dropped ]);
  checki "a counter outside the set reads 0" 0 (Counters.count set Unlisted);
  checkb "counting a counter outside the set raises" true
    (match Counters.bump set Unlisted with
    | () -> false
    | exception Invalid_argument _ -> true);
  check
    (Alcotest.list Alcotest.string)
    "one metric per counter"
    [ "agent.n.dropped"; "agent.n.sent" ]
    (Metrics.names reg);
  checkb "metric reads the count" true
    (Metrics.value reg "agent.n.dropped" = Some (Metrics.Counter 2.));
  let r = Option.get (Span.find_root spans corr) in
  check
    (Alcotest.list Alcotest.string)
    "traced under the counters' names, only when given a corr id"
    [ "dropped"; "sent" ]
    (List.map (fun e -> e.Span.label) r.Span.root_events)

let () =
  Alcotest.run "aitf_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "register and sample" `Quick
            test_register_and_sample;
          Alcotest.test_case "double registration raises" `Quick
            test_double_registration_raises;
          Alcotest.test_case "timer observe" `Quick test_timer_observe;
          Alcotest.test_case "attach/detach" `Quick test_attach_detach;
          Alcotest.test_case "with_attached detaches on raise" `Quick
            test_with_attached_detaches_on_raise;
          Alcotest.test_case "cross-domain stress" `Quick
            test_cross_domain_stress;
        ] );
      ( "counters",
        [ Alcotest.test_case "count, trace and register" `Quick test_counter_set ]
      );
      ( "json",
        [
          Alcotest.test_case "print and escape" `Quick
            test_json_print_and_escape;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "collects series" `Quick test_sampler_collects;
          Alcotest.test_case "deterministic under fixed seed" `Slow
            test_sampler_deterministic;
        ] );
      ( "report",
        [
          Alcotest.test_case "json round trip" `Quick test_report_round_trip;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "csv escaping (rfc 4180)" `Quick test_csv_escaping;
          Alcotest.test_case "byte-identical serialisation" `Quick
            test_report_deterministic;
        ] );
    ]
