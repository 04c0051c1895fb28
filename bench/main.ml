(* Benchmark & reproduction driver.

     dune exec bench/main.exe            # every experiment + microbenches
     dune exec bench/main.exe -- e1 e8   # a subset
     dune exec bench/main.exe -- list    # what exists

   Experiment tables live in Experiments (one per paper table/figure, see
   DESIGN.md); the `micro` target runs Bechamel microbenchmarks of the
   structures perfbench's micro ledger does not cover — one Test.make per
   structure under test. *)

open Aitf_filter

(* --- Bechamel microbenchmarks -------------------------------------------- *)

(* The hot-path structures (filter table, LPM, event queue, link, gateway
   hop) are measured in perfbench/micro.ml, in ns and words per operation;
   these two have no counterpart there. *)

let loaded_bloom () =
  let b = Aitf_traceback.Bloom.create ~bits:(1 lsl 17) ~hashes:4 in
  for i = 0 to 9_999 do
    Aitf_traceback.Bloom.add b (string_of_int i)
  done;
  b

let micro_tests () =
  let open Bechamel in
  let bloom_query =
    let b = loaded_bloom () in
    Test.make ~name:"bloom.mem (10k inserted)"
      (Staged.stage (fun () -> ignore (Aitf_traceback.Bloom.mem b "4242")))
  in
  let bucket =
    let b = Token_bucket.create ~rate:100. ~burst:100. in
    let now = ref 0. in
    Test.make ~name:"token_bucket.allow"
      (Staged.stage (fun () ->
           now := !now +. 0.01;
           ignore (Token_bucket.allow b ~now:!now)))
  in
  [ bloom_query; bucket ]

(* ns/op estimates of the last `micro` run, for the --json report. *)
let micro_results : (string * float) list ref = ref []

let run_micro () =
  let open Bechamel in
  print_endline "== M1  microbenchmarks of the hot data structures ==";
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                     ~predictors:[| Measure.run |])
        Toolkit.Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Bechamel.Analyze.OLS.estimates result with
        | Some [ est ] ->
          micro_results := (name, est) :: !micro_results;
          Printf.printf "  %-42s %10.1f ns/op\n" name est
        | _ -> Printf.printf "  %-42s (no estimate)\n" name)
      results
  in
  micro_results := [];
  List.iter (fun t -> benchmark (Test.make_grouped ~name:"" [ t ])) (micro_tests ());
  print_newline ()

(* --- Dispatch -------------------------------------------------------------- *)

let experiments =
  [
    ("f1", "Figure 1 / §II-D walk-through", Experiments.f1);
    ("e1", "§IV-A.1 effective bandwidth ratio r", Experiments.e1);
    ("e2", "§IV-A.2 Nv = R1*T protected flows", Experiments.e2);
    ("e3", "§IV-B victim-gateway resources nv, mv", Experiments.e3);
    ("e4", "§IV-C attacker-gateway resources na", Experiments.e4);
    ("e5", "§IV-D attacker-host resources na", Experiments.e5);
    ("e6", "§II-B/D escalation rounds", Experiments.e6);
    ("e7", "§II-E/III-B forged requests vs handshake", Experiments.e7);
    ("e8", "§V AITF vs Pushback", Experiments.e8);
    ("e9", "§III-C scaling with Internet size", Experiments.e9);
    ("e10", "§III-A ingress-filtering economics", Experiments.e10);
    ("e11", "DPF [PL01] vs AITF (proactive vs reactive)", Experiments.e11);
    ("e12", "random-topology robustness", Experiments.e12);
    ("e13", "transaction-level service quality", Experiments.e13);
    ("e14", "shape-shifting attack vs manual response", Experiments.e14);
    ("e15", "time-to-filter vs control-plane loss", Experiments.e15);
    ("e16", "filter-slot exhaustion vs the overload manager", Experiments.e16);
    ("e17", "hybrid fluid/packet engine: agreement + population scaling", Experiments.e17);
    ("e18", "filter placement at Internet scale: vanilla vs optimal vs adaptive", Experiments.e18);
    ("e19", "golden-trace matrix: perf trajectory + engine agreement", Experiments.e19);
    ("e20", "verifiable contracts vs Byzantine gateways", Experiments.e20);
    ("e21", "parallel engine: shard sweep, speedup + agreement", Experiments.e21);
    ("e22", "sharded tracing: overhead gate + digest invariance", Experiments.e22);
    ("a1", "ablation: traceback mechanisms", Experiments.a1);
    ("a2", "ablation: shadow cache", Experiments.a2);
    ("a3", "ablation: wildcard aggregation", Experiments.a3);
    ("a4", "ablation: victim-tail queue discipline", Experiments.a4);
    ("a5", "ablation: block vs rate-limit filters", Experiments.a5);
  ]

let list_targets () =
  print_endline "available targets:";
  List.iter (fun (id, desc, _) -> Printf.printf "  %-6s %s\n" id desc) experiments;
  Printf.printf "  %-6s %s\n" "micro" "Bechamel microbenchmarks";
  Printf.printf "  %-6s %s\n" "all" "everything (default)"

(* Per-target cost accounting for the --json report: wall-clock seconds,
   plus the engine profiler's event count and peak queue depth for the
   experiments (micro is left unprofiled — the probe's per-event cost would
   leak into the ns/op estimates it exists to measure). *)
let target_costs : (string * (float * (int * int) option)) list ref = ref []

let dispatch id =
  match List.find_opt (fun (k, _, _) -> k = id) experiments with
  | Some (_, desc, f) ->
    Printf.printf "\n#### %s — %s\n\n%!" (String.uppercase_ascii id) desc;
    f ()
  | None when id = "micro" -> run_micro ()
  | None ->
    Printf.eprintf "unknown target %S\n" id;
    list_targets ();
    exit 1

let run_one id =
  if not !Experiments.collect_json then dispatch id
  else begin
    let profiler =
      if id = "micro" then None
      else begin
        let p = Aitf_obs.Profile.create () in
        Aitf_obs.Profile.attach p;
        Some p
      end
    in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let wall = Unix.gettimeofday () -. t0 in
        let engine =
          Option.map
            (fun p ->
              Aitf_obs.Profile.detach ();
              (Aitf_obs.Profile.events p, Aitf_obs.Profile.peak_pending p))
            profiler
        in
        target_costs := (id, (wall, engine)) :: !target_costs)
      (fun () -> dispatch id)
  end

(* --json FILE: everything the run printed, machine-readable — the emitted
   experiment tables plus the micro estimates (schema aitf.bench-report/1). *)
let write_json_report file targets =
  let module Json = Aitf_obs.Json in
  let module Table = Aitf_stats.Table in
  let table_json t =
    Json.Obj
      [
        ("title", Json.String (Table.title t));
        ("columns", Json.List (List.map (fun c -> Json.String c) (Table.columns t)));
        ( "rows",
          Json.List
            (List.map
               (fun row -> Json.List (List.map (fun c -> Json.String c) row))
               (Table.rows t)) );
      ]
  in
  let micro_json (name, est) =
    Json.Obj [ ("name", Json.String name); ("ns_per_op", Json.Float est) ]
  in
  let cost_json (id, (wall, engine)) =
    Json.Obj
      (("name", Json.String id)
       :: ("wall_seconds", Json.Float wall)
       ::
       (match engine with
       | Some (events, peak) ->
         [
           ("engine_events", Json.Int events);
           ("peak_queue_depth", Json.Int peak);
         ]
       | None -> []))
  in
  let report =
    Json.Obj
      [
        ("schema", Json.String "aitf.bench-report/1");
        ("targets", Json.List (List.map (fun t -> Json.String t) targets));
        ( "experiments",
          Json.List (List.rev_map cost_json !target_costs) );
        ("tables", Json.List (List.rev_map table_json !Experiments.json_tables));
        ( "micro",
          Json.List
            (List.map micro_json
               (List.sort compare !micro_results)) );
      ]
  in
  Aitf_obs.Report.write_json file report;
  Printf.printf "wrote %s\n" file

let () =
  (* --csv-dir DIR mirrors every table as CSV into DIR;
     --json FILE writes a machine-readable report of the whole run. *)
  let json_file = ref None in
  let rec strip_opts = function
    | "--csv-dir" :: dir :: rest ->
      (try if not (Sys.is_directory dir) then Unix.mkdir dir 0o755
       with Sys_error _ -> Unix.mkdir dir 0o755);
      Experiments.csv_dir := Some dir;
      strip_opts rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      Experiments.collect_json := true;
      strip_opts rest
    | rest -> rest
  in
  let args =
    match Array.to_list Sys.argv with
    | prog :: rest -> prog :: strip_opts rest
    | [] -> []
  in
  let targets =
    match args with
    | _ :: ("list" | "--list") :: _ ->
      list_targets ();
      []
    | [ _ ] | [ _; "all" ] ->
      List.iter (fun (id, _, _) -> run_one id) experiments;
      run_micro ();
      List.map (fun (id, _, _) -> id) experiments @ [ "micro" ]
    | _ :: targets ->
      List.iter run_one targets;
      targets
    | [] -> []
  in
  match (!json_file, targets) with
  | Some file, _ :: _ -> write_json_report file targets
  | _ -> ()
