(* aitf_sim — command-line front end to the AITF simulator.

   Subcommands:
     run       simulate a single-attacker Figure-1 scenario, every protocol
               knob exposed as a flag; optionally dump the victim-rate
               series as CSV
     flood     a zombie army vs a server in a provider hierarchy
     swarm     a spoofed-source swarm over fluid aggregates (hybrid engine)
     internet  a generated AS-level Internet under DDoS, with a pluggable
               filter-placement policy (docs/TOPOLOGY.md, docs/PLACEMENT.md)
     matrix    the golden-trace differential matrix: every topology x
               engine x fault x adversary x placement cell byte-compared
               against checked-in goldens (docs/GOLDENS.md)
     replay    drive a trace-driven attack (synthesized or from a file)
               through either engine (docs/GOLDENS.md)
     formulas  evaluate the paper's Section IV formulas for given
               parameters

   Numeric flags are validated up front: a malformed value (nan, an
   out-of-range probability, a zero count) is rejected with the flag
   named and the CLI-error exit code, never absorbed by a default. The
   scenario subcommands turn their flags into one Scenario.t and hand it
   to one harness; parameters the scenario cannot place (Scenario.check)
   are CLI errors too.

   Examples:
     aitf_sim run --duration 60 --t-filter 6 --non-coop 1 --strategy onoff
     aitf_sim run --trace --duration 10
     aitf_sim run --spans spans.json --flight-recorder 4096 --profile
     aitf_sim swarm --sources 100000 --pools 8 --spans spans.json
     aitf_sim internet --sources 1000000 --placement optimal
     aitf_sim matrix --smoke --bench-json BENCH_E19.json
     aitf_sim replay --shape carpet --seed 7 --emit-trace
     aitf_sim formulas --r1 100 --r2 1 --t-filter 60 --ttmp 0.6
*)

module Series = Aitf_stats.Series
module Table = Aitf_stats.Table
module Json = Aitf_obs.Json
open Aitf_core
module Scenario = Aitf_workload.Scenario
module Scenarios = Aitf_workload.Scenarios
module Formulas = Aitf_model.Formulas
open Cmdliner

(* --- flag converters ------------------------------------------------------- *)

(* Strict numeric flag values. [Arg.float] happily accepts "nan", "inf"
   and out-of-range numbers, which then propagate silently into the
   scenario (a nan duration runs forever, a loss of 1.5 is a certainty).
   Every numeric flag goes through one of these validated converters, so
   a malformed value names the offending flag and exits non-zero. *)
let finite what s =
  match float_of_string_opt s with
  | None ->
    Error (`Msg (Printf.sprintf "%s: expected a number, got %S" what s))
  | Some v when not (Float.is_finite v) ->
    Error (`Msg (Printf.sprintf "%s: must be finite, got %S" what s))
  | Some v -> Ok v

let float_print fmt v = Format.fprintf fmt "%g" v

let float_conv what ~check ~expect =
  let parse s =
    Result.bind (finite what s) (fun v ->
        if check v then Ok v
        else
          Error (`Msg (Printf.sprintf "%s: must be %s, got %g" what expect v)))
  in
  Arg.conv (parse, float_print)

let pos_float what = float_conv what ~check:(fun v -> v > 0.) ~expect:"> 0"

let nonneg_float what =
  float_conv what ~check:(fun v -> v >= 0.) ~expect:">= 0"

let prob_float what =
  float_conv what
    ~check:(fun v -> v >= 0. && v <= 1.)
    ~expect:"a probability in [0, 1]"

let min_int what lo =
  let parse s =
    match int_of_string_opt s with
    | None ->
      Error (`Msg (Printf.sprintf "%s: expected an integer, got %S" what s))
    | Some v when v < lo ->
      Error (`Msg (Printf.sprintf "%s: must be >= %d, got %d" what lo v))
    | Some v -> Ok v
  in
  Arg.conv (parse, Format.pp_print_int)

(* "A:B" float pairs, for --burst-loss and --flap; both components are
   validated by [check]/[expect] like the scalar converters. *)
let pair_conv ~what ?(check = Float.is_finite) ?(expect = "finite") () =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
      match (float_of_string_opt a, float_of_string_opt b) with
      | Some a, Some b ->
        if check a && check b then Ok (a, b)
        else
          Error
            (`Msg
               (Printf.sprintf "%s: both components must be %s" what expect))
      | _ -> Error (`Msg (Printf.sprintf "%s expects FLOAT:FLOAT" what)))
    | _ -> Error (`Msg (Printf.sprintf "%s expects FLOAT:FLOAT" what))
  in
  let print fmt (a, b) = Format.fprintf fmt "%g:%g" a b in
  Arg.conv (parse, print)

(* A converter from a library's [of_string]/[to_string] pair. *)
let string_conv of_string to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (of_string s)),
      fun fmt v -> Format.pp_print_string fmt (to_string v) )

let adversary_conv =
  let module Adversary = Aitf_adversary.Adversary in
  string_conv Adversary.playbook_of_string Adversary.playbook_to_string

let strategy_conv =
  let parse = function
    | "complies" -> Ok Policy.Complies
    | "ignores" -> Ok Policy.Ignores
    | s when String.length s > 6 && String.sub s 0 6 = "onoff:" -> (
      match float_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some off_time -> Ok (Policy.On_off { off_time })
      | None -> Error (`Msg "onoff:<seconds> expected"))
    | "onoff" -> Ok (Policy.On_off { off_time = 1.0 })
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print fmt s = Policy.pp_attacker fmt s in
  Arg.conv (parse, print)

(* --- causal tracing / flight recorder / profiler -------------------------
   One flag block shared by run, flood, swarm and internet
   (docs/OBSERVABILITY.md, "Causal tracing"). Everything is off by default
   and attached to the ambient run context before the scenario creates its
   world, so the gateways see the collectors at construction time. *)

type obs_opts = {
  spans_file : string option;
  flight_capacity : int;
  flight_dump : bool;
  flight_dump_file : string option;
  profile : bool;
  slo : float option;
  timeline : bool;  (** run's --trace: print the span timeline *)
}

let obs_term =
  let spans =
    Arg.(value & opt (some string) None & info [ "spans" ] ~docv:"FILE"
           ~doc:"Attach the causal span collector and write the span forest \
                 as Chrome trace-event JSON (loadable in Perfetto); also \
                 prints the per-stage critical-path summary. See \
                 docs/OBSERVABILITY.md, section Causal tracing.")
  in
  let flight =
    Arg.(value & opt (min_int "--flight-recorder" 0) 0 & info [ "flight-recorder" ] ~docv:"N"
           ~doc:"Arm the packet flight recorder: a ring buffer of the last \
                 N per-hop link records (enqueue/dequeue/drop with queue \
                 depth). 0 disables. Dumped automatically on an --slo \
                 breach, or at the end of the run with --flight-dump.")
  in
  let flight_dump =
    Arg.(value & flag & info [ "flight-dump" ]
           ~doc:"Dump the retained flight-recorder records to stderr after \
                 the run (on-demand counterpart to the --slo auto-dump).")
  in
  let flight_dump_file =
    Arg.(value & opt (some string) None & info [ "flight-dump-file" ]
           ~docv:"FILE"
           ~doc:"Write --slo auto-dumps to FILE instead of stderr. A \
                 sharded run finds its breaches when the shards join after \
                 the run and dumps the joined ring (records sorted by \
                 time, shard, sequence) once.")
  in
  let profile =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Profile the engine: wall-clock seconds per event category \
                 plus the peak event-queue depth, printed after the run and \
                 folded into the metrics report when --metrics is given. \
                 Wall-clock figures are nondeterministic; the simulated \
                 event sequence is unchanged.")
  in
  let slo =
    Arg.(value & opt (some (pos_float "--slo")) None & info [ "slo" ] ~docv:"SECONDS"
           ~doc:"Latency objective for one filtering request (root opened \
                 at the victim until the long filter lands). A request \
                 completing later than this dumps the flight recorder. \
                 Implies span collection even without --spans.")
  in
  Term.(
    const (fun spans_file flight_capacity flight_dump flight_dump_file
               profile slo ->
        { spans_file; flight_capacity; flight_dump; flight_dump_file;
          profile; slo; timeline = false })
    $ spans $ flight $ flight_dump $ flight_dump_file $ profile $ slo)

(* Attach what the flags ask for, run, then detach everything in reverse
   order: print the profile, the flight recorder's tally and the span
   summary, export the span forest, and surface the profiler through the
   registry so the run report written later carries the hot-path
   buckets. *)
let observe o ~registry ~now run =
  let collector =
    if o.timeline || o.spans_file <> None || o.slo <> None then begin
      let t = Aitf_obs.Span.create () in
      Aitf_obs.Span.attach t;
      Some t
    end
    else None
  in
  let recorder =
    if o.flight_capacity > 0 then begin
      let f = Aitf_obs.Flight.create ~capacity:o.flight_capacity in
      Aitf_obs.Flight.set_dump_path f o.flight_dump_file;
      Aitf_obs.Flight.attach f;
      Some f
    end
    else None
  in
  (match (collector, o.slo) with
  | Some t, Some seconds ->
    Aitf_obs.Span.set_slo t ~seconds (fun root ->
        Format.eprintf "-- SLO breach: corr=%d flow=%s took %.3fs (> %gs) --@."
          root.Aitf_obs.Span.corr root.Aitf_obs.Span.flow
          (match root.Aitf_obs.Span.completed_at with
          | Some c -> c -. root.Aitf_obs.Span.opened_at
          | None -> nan)
          seconds;
        match recorder with
        | Some f -> Aitf_obs.Flight.auto_dump f
        | None -> ())
  | _ -> ());
  let profiler =
    if o.profile then begin
      let p = Aitf_obs.Profile.create () in
      Aitf_obs.Profile.attach p;
      Some p
    end
    else None
  in
  let result = run () in
  (match profiler with
  | None -> ()
  | Some p ->
    Aitf_obs.Profile.detach ();
    (match registry with
    | Some reg ->
      Aitf_obs.Profile.register_metrics p reg ~prefix:"engine.profile"
    | None -> ());
    print_string (Aitf_obs.Profile.report p));
  (match recorder with
  | None -> ()
  | Some f ->
    Aitf_obs.Flight.detach ();
    Printf.printf "flight recorder: %d record(s) seen, last %d retained\n"
      (Aitf_obs.Flight.recorded f)
      (List.length (Aitf_obs.Flight.records f));
    if o.flight_dump then Aitf_obs.Flight.dump f);
  (match collector with
  | None -> ()
  | Some t ->
    Aitf_obs.Span.detach ();
    if o.timeline then print_string (Aitf_obs.Span.timeline t);
    (match o.spans_file with
    | None -> ()
    | Some file ->
      Aitf_obs.Report.write_json file (Aitf_obs.Span.to_chrome_trace ~now t);
      Printf.printf "wrote %s (%d request(s) traced)\n" file
        (List.length (Aitf_obs.Span.roots t)));
    print_string (Aitf_obs.Span.summary t));
  result

(* --- flags the scenario subcommands share ---------------------------------- *)

let duration_t default =
  Arg.(value & opt (pos_float "--duration") default & info [ "duration" ]
         ~docv:"SECONDS" ~doc:"Simulated duration.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.")

let td_t =
  Arg.(value & opt (nonneg_float "--td") 0.1 & info [ "td" ] ~docv:"SECONDS"
         ~doc:"Victim detection delay Td for a new flow.")

let rate_t name default doc =
  Arg.(value & opt (nonneg_float ("--" ^ name)) default & info [ name ]
         ~docv:"BITS/S" ~doc)

let engine_t =
  Arg.(value
       & opt (enum [ ("packet", Config.Packet); ("hybrid", Config.Hybrid) ])
           Config.Packet
       & info [ "engine" ] ~docv:"packet|hybrid"
           ~doc:"Data-plane substrate: discrete packets end to end, or the \
                 fluid rate-domain plane bridged to the packet-level control \
                 plane by sampled probes (see docs/SIMULATOR.md).")

let hybrid_epoch_t =
  Arg.(value & opt (pos_float "--hybrid-epoch") Config.default.Config.hybrid_epoch
       & info [ "hybrid-epoch" ] ~docv:"SECONDS"
           ~doc:"Fluid-share recompute period under the hybrid engine.")

let probe_rate_t =
  Arg.(value
       & opt (nonneg_float "--probe-rate")
           Config.default.Config.hybrid_probe_rate
       & info [ "probe-rate" ] ~docv:"PKTS/S"
           ~doc:"Probe packets materialised per aggregate under the hybrid \
                 engine (0 = derive from the aggregate's own rate).")

let overload_t =
  Arg.(value & flag & info [ "overload" ]
         ~doc:"Enable the filter-table overload manager (watermark-driven \
               prefix aggregation and priority eviction under slot \
               pressure).")

let filter_capacity_t =
  Arg.(value & opt (min_int "--filter-capacity" 1) Config.default.Config.filter_capacity
       & info [ "filter-capacity" ] ~docv:"SLOTS"
           ~doc:"Wire-speed filter-table slots per gateway.")

let metrics_t =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Attach a metrics registry and write a JSON run report \
               (schema aitf.run-report/1, see docs/OBSERVABILITY.md).")

let metrics_interval_t =
  Arg.(value & opt (nonneg_float "--metrics-interval") 0. & info [ "metrics-interval" ] ~docv:"SECONDS"
         ~doc:"Metric sampling period (0 = the scenario default).")

let csv_t =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
         ~doc:"Write the victim-observed attack-rate series as CSV.")

(* --metrics-interval overrides the scenario's sampling period when set. *)
let period interval default = if interval > 0. then interval else default

(* --- one harness behind every scenario subcommand ------------------------- *)

type outputs = {
  obs : obs_opts;
  metrics : string option;
  metrics_csv : string option;
  csv : string option;
}

let quiet =
  {
    obs =
      { spans_file = None; flight_capacity = 0; flight_dump = false;
        flight_dump_file = None; profile = false; slo = None;
        timeline = false };
    metrics = None;
    metrics_csv = None;
    csv = None;
  }

(* How an outcome scalar reads in the result table; the replay trace (the
   one string field) is left out. *)
let show = function
  | Json.Int n -> Some (string_of_int n)
  | Json.Float f when Float.abs f >= 1e3 -> Some (Printf.sprintf "%.0f" f)
  | Json.Float f -> Some (Printf.sprintf "%.5g" f)
  | Json.Null -> Some "none"
  | _ -> None

(* Everything a scenario subcommand does once its flags are a
   [Scenario.t]: the range check (a CLI error, exit 124), the metrics
   registry and observability attach/detach around the run, the result
   table (the outcome's scalars, then the subcommand's own [rows]), the
   run report and the CSV series. *)
let execute out ~title ~meta ~rows scenario =
  match Scenario.check scenario with
  | Error msg -> Error msg
  | Ok () ->
    let registry =
      if out.metrics <> None || out.metrics_csv <> None then begin
        let reg = Aitf_obs.Metrics.create () in
        Aitf_obs.Metrics.attach reg;
        Some reg
      end
      else None
    in
    let now = Scenario.duration scenario in
    let o =
      observe out.obs ~registry ~now (fun () ->
          let o = Scenario.run scenario in
          Aitf_obs.Metrics.detach ();
          o)
    in
    let table = Table.create ~title ~columns:[ "metric"; "value" ] in
    List.iter
      (fun (k, v) -> Option.iter (fun s -> Table.add_row table [ k; s ]) (show v))
      o.Scenario.fields;
    List.iter (fun (k, v) -> Table.add_row table [ k; v ]) (rows o);
    Table.print table;
    Option.iter
      (fun reg ->
        let series =
          match o.Scenario.sampler with
          | Some s -> Aitf_obs.Sampler.series s
          | None -> []
        in
        Option.iter
          (fun file ->
            Aitf_obs.Report.write_json file
              (Aitf_obs.Report.make ~meta ?parallel:o.Scenario.parallel ~series
                 ~now reg);
            Printf.printf "wrote %s (%d metrics, %d series)\n" file
              (Aitf_obs.Metrics.size reg) (List.length series))
          out.metrics;
        Option.iter
          (fun file ->
            Aitf_obs.Report.write_file file (Aitf_obs.Report.series_csv series);
            Printf.printf "wrote %s\n" file)
          out.metrics_csv)
      registry;
    Option.iter
      (fun file ->
        let points = Series.points o.Scenario.victim_rate in
        let oc = open_out file in
        output_string oc "time,attack_bps\n";
        List.iter (fun (t, v) -> Printf.fprintf oc "%.3f,%.1f\n" t v) points;
        close_out oc;
        Printf.printf "wrote %s (%d samples)\n" file (List.length points))
      out.csv;
    Ok (o, registry)

let cli = function Ok _ -> `Ok () | Error msg -> `Error (false, msg)

(* --- run ------------------------------------------------------------------ *)

let run_cmd =
  let t_filter =
    Arg.(value & opt (pos_float "--t-filter") 6. & info [ "t-filter"; "T" ] ~docv:"SECONDS"
           ~doc:"The blocking interval T every request asks for.")
  in
  let t_tmp =
    Arg.(value & opt (pos_float "--ttmp") 0.5 & info [ "ttmp" ] ~docv:"SECONDS"
           ~doc:"Ttmp, the victim gateway's temporary-filter horizon.")
  in
  let attack_rate = rate_t "attack-rate" 1e6 "Undesired flow rate." in
  let legit_rate =
    rate_t "legit-rate" 0. "Bystander flow rate sharing the victim tail (0 = none)."
  in
  let non_coop =
    Arg.(value & opt (min_int "--non-coop" 0) 0 & info [ "non-coop" ] ~docv:"K"
           ~doc:"Number of unresponsive attacker-side gateways.")
  in
  let strategy =
    Arg.(value & opt strategy_conv Policy.Ignores & info [ "strategy" ]
           ~docv:"complies|ignores|onoff[:T]"
           ~doc:"Attacker host behaviour on a filtering request.")
  in
  let depth =
    Arg.(value & opt (min_int "--depth" 1) 3 & info [ "depth" ] ~docv:"N"
           ~doc:"Gateways per side of the chain.")
  in
  let no_handshake =
    Arg.(value & flag & info [ "no-handshake" ]
           ~doc:"Disable the 3-way verification handshake.")
  in
  let disconnect =
    Arg.(value & flag & info [ "disconnect" ]
           ~doc:"Enforce disconnection of non-compliant parties.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Print the protocol timeline after the run: every span \
                 start, finish and event of the causal span collector, \
                 in time order.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print per-gateway and per-link statistics after the run.")
  in
  let metrics_csv =
    Arg.(value & opt (some string) None & info [ "metrics-csv" ] ~docv:"FILE"
           ~doc:"Write the sampled metric time series as long-format CSV \
                 (metric,time,value).")
  in
  let traceback =
    Arg.(value & opt (enum [ ("rr", `Rr); ("spie", `Spie); ("ppm", `Ppm) ]) `Rr
         & info [ "traceback" ] ~docv:"rr|spie|ppm"
             ~doc:"Traceback mechanism: in-packet route record, SPIE digest \
                   queries at the gateway, or probabilistic packet marking.")
  in
  let loss =
    Arg.(value & opt (prob_float "--loss") 0. & info [ "loss" ] ~docv:"P"
           ~doc:"I.i.d. loss probability for control packets crossing the \
                 victim's tail circuit (both directions).")
  in
  let burst_loss =
    Arg.(value & opt (some (pair_conv ~what:"--burst-loss"
                 ~check:(fun v -> v >= 0. && v <= 1.)
                 ~expect:"a probability in [0, 1]" ())) None
         & info [ "burst-loss" ] ~docv:"P_ENTER:P_EXIT"
             ~doc:"Gilbert-Elliott burst loss on the victim-tail control \
                   channel: per-packet probability of entering / leaving \
                   the all-loss bad state.")
  in
  let dup =
    Arg.(value & opt (prob_float "--dup") 0. & info [ "dup" ] ~docv:"P"
           ~doc:"Probability of duplicating a control packet on the \
                 victim's tail circuit.")
  in
  let flap =
    Arg.(value & opt (some (pair_conv ~what:"--flap" ~check:(fun v -> v > 0.) ~expect:"> 0" ())) None
         & info [ "flap" ] ~docv:"PERIOD:DOWN"
             ~doc:"Flap the victim's tail circuit: every PERIOD seconds, \
                   take it down (both directions) for DOWN seconds.")
  in
  let ctrl_retries =
    Arg.(value & opt (min_int "--ctrl-retries" 0) 0 & info [ "ctrl-retries" ] ~docv:"N"
           ~doc:"Control-plane retransmissions per message beyond the \
                 first transmission (0 = single-shot, the classic \
                 protocol).")
  in
  let ctrl_rto =
    Arg.(value & opt (pos_float "--ctrl-rto") 0.5 & info [ "ctrl-rto" ] ~docv:"SECONDS"
           ~doc:"Initial control-plane retransmission timeout; doubles on \
                 every retry.")
  in
  let adversary =
    Arg.(value & opt_all adversary_conv [] & info [ "adversary" ]
           ~docv:"PLAYBOOK[:k=v,...]"
           ~doc:"Launch an adversary playbook against the protocol itself \
                 (repeatable): slot-exhaustion, shadow-exhaustion, \
                 request-flood, reply-replay or route-forgery. See \
                 docs/ADVERSARY.md for the knobs of each.")
  in
  let run duration t_filter t_tmp attack_rate legit_rate non_coop strategy td
      depth seed no_handshake disconnect trace csv stats metrics metrics_csv
      metrics_interval traceback loss burst_loss dup flap ctrl_retries
      ctrl_rto adversary overload filter_capacity engine hybrid_epoch
      probe_rate obs =
    let ctrl_faults =
      let module F = Aitf_fault.Fault in
      (if loss > 0. then [ F.Loss loss ] else [])
      @ (match burst_loss with
        | Some (p_enter, p_exit) -> [ F.burst ~p_enter ~p_exit () ]
        | None -> [])
      @ if dup > 0. then [ F.Duplicate dup ] else []
    in
    let params =
      {
        Scenarios.default_chain with
        Scenarios.spec = { Aitf_topo.Chain.default_spec with depth };
        config =
          {
            Config.default with
            Config.t_filter;
            t_tmp;
            grace = 0.3;
            min_report_gap = Float.max 0.2 (t_filter /. 30.);
            handshake = not no_handshake;
            disconnect;
            ctrl_retries;
            ctrl_rto;
            filter_capacity;
            overload_manager = overload;
            engine;
            hybrid_epoch;
            hybrid_probe_rate = probe_rate;
          };
        seed;
        duration;
        attack_rate;
        legit_rate;
        n_non_coop_gws = non_coop;
        attacker_strategy = strategy;
        td;
        traceback =
          (match traceback with
          | `Rr -> `Path_in_request
          | `Spie -> `Spie
          | `Ppm -> `Ppm);
        sample_period =
          period metrics_interval Scenarios.default_chain.Scenarios.sample_period;
        ctrl_faults;
        tail_flap = flap;
        adversaries = adversary;
        in_pool_legit_rate = (if adversary <> [] then legit_rate /. 10. else 0.);
      }
    in
    let rows o =
      let r = o.Scenario.result in
      let i = string_of_int in
      [
        ( "paper bound n(Td+Tr)/T",
          Printf.sprintf "%.5f"
            (Formulas.effective_bandwidth_ratio ~n:(non_coop + 1) ~td
               ~tr:Aitf_topo.Chain.default_spec.Aitf_topo.Chain.access_delay
               ~t_filter) );
        ( "time to suppression (s)",
          match Scenarios.time_to_suppress r ~threshold:0.05 with
          | Some t -> Printf.sprintf "%.2f" t
          | None -> "never" );
      ]
      @ (if ctrl_faults <> [] || flap <> None || ctrl_retries > 0 then
           [
             ("victim request retransmissions", i r.Scenarios.requests_retransmitted);
             ("gateway ctrl retransmissions", i r.Scenarios.ctrl_retransmits);
             ("gateway retry budgets exhausted", i r.Scenarios.ctrl_gave_up);
           ]
         else [])
      @ List.map
          (fun h ->
            let module A = Aitf_adversary.Adversary in
            ( Printf.sprintf "adversary %s" (A.kind (A.playbook h)),
              Printf.sprintf "pkts=%d reqs=%d replays=%d guesses=%d forged=%d"
                (A.count h A.Packet_sent) (A.count h A.Request_sent)
                (A.count h A.Replay_sent) (A.count h A.Guess_sent)
                (A.count h A.Stamp_forged) ))
          r.Scenarios.adversary_handles
      @
      if overload then
        [
          ("overload aggregations", i r.Scenarios.overload_aggregations);
          ("overload evictions", i r.Scenarios.overload_evictions);
          ( "collateral (pkts / bytes)",
            Printf.sprintf "%d / %d" r.Scenarios.collateral_packets
              r.Scenarios.collateral_bytes );
        ]
      else []
    in
    let meta =
      [
        ("scenario", Json.String "chain");
        ("seed", Json.Int seed);
        ("duration", Json.Float duration);
        ("attack_rate", Json.Float attack_rate);
        ("t_filter", Json.Float t_filter);
        ("t_tmp", Json.Float t_tmp);
        ("non_coop", Json.Int non_coop);
      ]
    in
    let out = { obs = { obs with timeline = trace }; metrics; metrics_csv; csv } in
    match
      execute out ~title:"scenario result" ~meta ~rows (Scenario.Chain params)
    with
    | Error msg -> `Error (false, msg)
    | Ok (o, registry) ->
      if stats then begin
        let d = o.Scenario.result.Scenarios.deployed in
        Table.print
          (Aitf_workload.Report.gateway_table
             (d.Aitf_topo.Chain.victim_gateways
             @ d.Aitf_topo.Chain.attacker_gateways));
        Table.print
          (Aitf_workload.Report.link_table d.Aitf_topo.Chain.topo.Aitf_topo.Chain.net);
        Option.iter
          (fun reg -> Table.print (Aitf_workload.Report.metrics_table reg))
          registry
      end;
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ duration_t 60. $ t_filter $ t_tmp $ attack_rate
       $ legit_rate $ non_coop $ strategy $ td_t $ depth $ seed_t
       $ no_handshake $ disconnect $ trace $ csv_t $ stats $ metrics_t
       $ metrics_csv $ metrics_interval_t $ traceback $ loss $ burst_loss $ dup
       $ flap $ ctrl_retries $ ctrl_rto $ adversary $ overload_t
       $ filter_capacity_t $ engine_t $ hybrid_epoch_t $ probe_rate_t
       $ obs_term))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a single-attacker Figure-1 scenario.")
    term

(* --- flood ------------------------------------------------------------------ *)

let flood_cmd =
  let isps = Arg.(value & opt (min_int "--isps" 1) 3 & info [ "isps" ] ~doc:"Number of ISPs.") in
  let nets =
    Arg.(value & opt (min_int "--nets" 1) 3 & info [ "nets" ] ~doc:"Enterprise networks per ISP.")
  in
  let hosts =
    Arg.(value & opt (min_int "--hosts" 1) 3 & info [ "hosts" ] ~doc:"Hosts per enterprise.")
  in
  let zombies =
    Arg.(value & opt (min_int "--zombies" 0) 12 & info [ "zombies" ] ~doc:"Size of the zombie army.")
  in
  let rate = rate_t "zombie-rate" 1e6 "Per-zombie attack rate." in
  let no_aitf =
    Arg.(value & flag & info [ "no-aitf" ] ~doc:"Run without any defense.")
  in
  let run isps nets hosts zombies rate duration seed no_aitf metrics
      metrics_interval engine obs =
    let d = Scenarios.default_flood in
    let params =
      {
        d with
        Scenarios.hierarchy =
          {
            Aitf_topo.Hierarchy.default_spec with
            Aitf_topo.Hierarchy.isps;
            nets_per_isp = nets;
            hosts_per_net = hosts;
          };
        flood_config = { d.Scenarios.flood_config with Config.engine };
        zombies;
        zombie_rate = rate;
        flood_duration = duration;
        flood_seed = seed;
        with_aitf = not no_aitf;
        flood_sample_period =
          period metrics_interval d.Scenarios.flood_sample_period;
      }
    in
    let meta =
      [
        ("scenario", Json.String "flood");
        ("seed", Json.Int seed);
        ("duration", Json.Float duration);
        ("zombies", Json.Int zombies);
        ("zombie_rate", Json.Float rate);
        ("with_aitf", Json.Bool (not no_aitf));
      ]
    in
    cli
      (execute { quiet with obs; metrics } ~title:"flood result" ~meta
         ~rows:(fun _ -> []) (Scenario.Flood params))
  in
  let term =
    Term.(
      ret
        (const run $ isps $ nets $ hosts $ zombies $ rate $ duration_t 20.
       $ seed_t $ no_aitf $ metrics_t $ metrics_interval_t $ engine_t
       $ obs_term))
  in
  Cmd.v
    (Cmd.info "flood"
       ~doc:"Simulate a zombie army flooding a server in a provider hierarchy.")
    term

(* --- swarm ------------------------------------------------------------------ *)

let swarm_cmd =
  let sources =
    Arg.(value & opt (min_int "--sources" 1) 1000 & info [ "sources" ] ~docv:"N"
           ~doc:"Total attacking sources across the spoofed pools.")
  in
  let pools =
    Arg.(value & opt (min_int "--pools" 1) 4 & info [ "pools" ] ~docv:"N"
           ~doc:"Origin pool nodes (1..16), one fluid aggregate each.")
  in
  let attack_rate =
    rate_t "attack-rate" 20e6 "Total attack rate summed over every source."
  in
  let legit_rate =
    rate_t "legit-rate" 1e6 "Bystander rate sharing the victim tail (0 = none)."
  in
  let run sources pools attack_rate legit_rate duration seed td hybrid_epoch
      probe_rate metrics metrics_interval obs =
    let d = Scenarios.default_swarm in
    let params =
      {
        d with
        Scenarios.swarm_config =
          {
            d.Scenarios.swarm_config with
            Config.hybrid_epoch;
            hybrid_probe_rate = probe_rate;
          };
        swarm_seed = seed;
        swarm_duration = duration;
        swarm_sources = sources;
        swarm_pools = pools;
        swarm_attack_rate = attack_rate;
        swarm_legit_rate = legit_rate;
        swarm_td = td;
        swarm_sample_period =
          period metrics_interval d.Scenarios.swarm_sample_period;
      }
    in
    let meta =
      [
        ("scenario", Json.String "swarm");
        ("seed", Json.Int seed);
        ("duration", Json.Float duration);
        ("sources", Json.Int sources);
        ("pools", Json.Int pools);
        ("attack_rate", Json.Float attack_rate);
      ]
    in
    cli
      (execute { quiet with obs; metrics } ~title:"swarm result" ~meta
         ~rows:(fun _ -> []) (Scenario.Swarm params))
  in
  let term =
    Term.(
      ret
        (const run $ sources $ pools $ attack_rate $ legit_rate $ duration_t 30.
       $ seed_t $ td_t $ hybrid_epoch_t $ probe_rate_t $ metrics_t
       $ metrics_interval_t $ obs_term))
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:"Scale a spoofed-source swarm over fluid aggregates against the \
             Figure-1 chain (hybrid engine).")
    term

(* --- internet --------------------------------------------------------------- *)

let placement_conv =
  string_conv Placement.policy_of_string Placement.policy_to_string

let internet_cmd =
  let module As_graph = Aitf_topo.As_graph in
  let module As_scenario = Aitf_workload.As_scenario in
  let module Placement_ctl = Aitf_workload.Placement_ctl in
  let domains =
    Arg.(value & opt (min_int "--domains" 3) 1000 & info [ "domains" ] ~docv:"N"
           ~doc:"Gateway domains in the generated AS graph (<= 16384).")
  in
  let tier1 =
    Arg.(value & opt (min_int "--tier1" 2) As_graph.default_spec.As_graph.tier1
         & info [ "tier1" ] ~docv:"N"
             ~doc:"Fully-meshed tier-1 providers at the top of the graph.")
  in
  let multihome =
    Arg.(value & opt (min_int "--multihome" 1) As_graph.default_spec.As_graph.multihome
         & info [ "multihome" ] ~docv:"N"
             ~doc:"Provider uplinks per non-tier-1 domain.")
  in
  let peer_p =
    Arg.(value & opt (prob_float "--peer-p") As_graph.default_spec.As_graph.peer_p
         & info [ "peer-p" ] ~docv:"P"
             ~doc:"Probability a new domain adds one lateral peer link.")
  in
  let placement =
    Arg.(value & opt placement_conv Placement.Vanilla
         & info [ "placement" ] ~docv:"POLICY"
             ~doc:"Filter-placement policy: $(b,vanilla) (classic AITF \
                   escalate-upstream), $(b,optimal) (per-epoch optimal \
                   filter selection) or $(b,adaptive) (feedback-driven \
                   frontier walking). See docs/PLACEMENT.md.")
  in
  let placement_epoch =
    Arg.(value & opt (pos_float "--placement-epoch") Config.default.Config.placement_epoch
         & info [ "placement-epoch" ] ~docv:"SECONDS"
             ~doc:"Managed-placement controller decision period.")
  in
  let sources =
    Arg.(value & opt (min_int "--sources" 1) 100_000 & info [ "sources" ] ~docv:"N"
           ~doc:"Total attack sources spread over the attack domains.")
  in
  let attack_domains =
    Arg.(value & opt (min_int "--attack-domains" 1) 40 & info [ "attack-domains" ] ~docv:"N"
           ~doc:"Domains hosting an attack source pool.")
  in
  let legit_sources =
    Arg.(value & opt (min_int "--legit-sources" 0) 10_000 & info [ "legit-sources" ] ~docv:"N"
           ~doc:"Total legitimate sources spread over the legit domains.")
  in
  let legit_domains =
    Arg.(value & opt (min_int "--legit-domains" 1) 10 & info [ "legit-domains" ] ~docv:"N"
           ~doc:"Domains hosting a legitimate source pool.")
  in
  let attack_rate =
    rate_t "attack-rate" 200e6 "Total attack rate summed over every source."
  in
  let legit_rate =
    rate_t "legit-rate" 5e6 "Total legitimate rate towards the victim."
  in
  let contracts =
    Arg.(value & flag & info [ "contracts" ]
           ~doc:"Enable verifiable filtering contracts: signed requests, \
                 install receipts, a victim-side auditor and \
                 Byzantine-gateway failover (docs/CONTRACTS.md).")
  in
  let byzantine_fraction =
    Arg.(value & opt (prob_float "--byzantine-fraction") 0.
         & info [ "byzantine-fraction" ] ~docv:"P"
             ~doc:"Fraction of on-path gateways corrupted into the lying \
                   mode at setup (needs $(b,--contracts)).")
  in
  let lying_mode =
    let module A = Aitf_adversary.Adversary in
    let parse s =
      match String.split_on_char ':' s with
      | [ "accept-ignore" ] -> Ok A.Accept_ignore
      | [ "forge" ] -> Ok A.Forge
      | [ "replay" ] -> Ok A.Replay
      | [ "partial" ] -> Ok (A.Partial 125_000.)
      | [ "partial"; leak ] -> (
        match float_of_string_opt leak with
        | Some l when l >= 0. -> Ok (A.Partial l)
        | Some _ | None ->
          Error (`Msg (Printf.sprintf "--lying-mode: bad leak %S" leak)))
      | _ ->
        Error
          (`Msg
             "--lying-mode: expected accept-ignore | partial[:BYTES/S] | \
              forge | replay")
    in
    let print fmt m =
      Format.pp_print_string fmt
        (match m with
        | A.Accept_ignore -> "accept-ignore"
        | A.Partial l -> Printf.sprintf "partial:%g" l
        | A.Forge -> "forge"
        | A.Replay -> "replay")
    in
    Arg.(value & opt (conv (parse, print)) A.Accept_ignore
         & info [ "lying-mode" ] ~docv:"MODE"
             ~doc:"How corrupted gateways cheat: $(b,accept-ignore), \
                   $(b,partial)[:leak bytes/s], $(b,forge) or $(b,replay).")
  in
  let contract_r1 =
    Arg.(value & opt (some (pos_float "--contract-r1")) None
         & info [ "contract-r1" ] ~docv:"REQ/S"
             ~doc:"Provider-side contract: admit client filtering requests \
                   at R1 per second (default: the paper's 100/s when only \
                   $(b,--contract-r2) is given).")
  in
  let contract_r2 =
    Arg.(value & opt (some (pos_float "--contract-r2")) None
         & info [ "contract-r2" ] ~docv:"REQ/S"
             ~doc:"Provider-side contract: cap counter-requests towards \
                   the client at R2 per second (default: the paper's 1/s \
                   when only $(b,--contract-r1) is given).")
  in
  let audit_deadline =
    Arg.(value & opt (pos_float "--audit-deadline")
           Aitf_contract.Auditor.default_config.Aitf_contract.Auditor.deadline
         & info [ "audit-deadline" ] ~docv:"SECONDS"
             ~doc:"Auditor: how long a gateway has to produce its first \
                   receipt. Set below the temp-filter lifetime to catch \
                   accept-then-ignore liars that blind escalation would \
                   paper over.")
  in
  let audit_grace =
    Arg.(value & opt (pos_float "--audit-grace")
           Aitf_contract.Auditor.default_config.Aitf_contract.Auditor.grace
         & info [ "audit-grace" ] ~docv:"SECONDS"
             ~doc:"Auditor: arrivals within this window of a valid receipt \
                   (or of the audit tick) still count as in-flight, not as \
                   evidence. Must stay below the deadline.")
  in
  let shards =
    Arg.(value & opt (min_int "--shards" 1) 1 & info [ "shards" ] ~docv:"N"
           ~doc:"Simulation shards for the parallel engine \
                 (docs/PARALLEL.md). 1 (the default) is the sequential \
                 engine, bit-identical to earlier releases; N > 1 \
                 partitions the domains over N event-queue shards \
                 synchronized by conservative lookahead windows — \
                 deterministic for a fixed (seed, N), with outcome \
                 scalars that vary slightly across shard counts. \
                 Observability composes: --spans, --flight-recorder, \
                 --metrics and --contracts all work at any N (per-shard \
                 collectors merged deterministically after the run; see \
                 docs/OBSERVABILITY.md).")
  in
  let run domains tier1 multihome peer_p placement placement_epoch sources
      attack_domains legit_sources legit_domains attack_rate legit_rate
      duration seed td overload filter_capacity metrics contracts
      byzantine_fraction lying_mode contract_r1 contract_r2 audit_deadline
      audit_grace shards obs =
    let params =
      {
        As_scenario.default with
        As_scenario.as_spec =
          { As_graph.default_spec with As_graph.domains; tier1; multihome; peer_p };
        as_config =
          {
            Config.default with
            Config.engine = Config.Hybrid;
            placement;
            placement_epoch;
            overload_manager = overload;
            aggregate_on_pressure = overload;
            filter_capacity;
          };
        as_seed = seed;
        as_duration = duration;
        as_sources = sources;
        as_attack_domains = attack_domains;
        as_legit_domains = legit_domains;
        as_legit_sources = legit_sources;
        as_attack_rate = attack_rate;
        as_legit_rate = legit_rate;
        as_td = td;
        as_contracts = contracts;
        as_byzantine_fraction = byzantine_fraction;
        as_lying_mode = lying_mode;
        as_contract =
          (match (contract_r1, contract_r2) with
          | None, None -> None
          | r1, r2 ->
            let d = Contract.paper_default in
            Some
              (Contract.v
                 ~r1:(Option.value r1 ~default:d.Contract.r1)
                 ~r2:(Option.value r2 ~default:d.Contract.r2)
                 ()));
        as_audit =
          {
            Aitf_contract.Auditor.default_config with
            Aitf_contract.Auditor.deadline = audit_deadline;
            grace = audit_grace;
          };
        as_shards = shards;
      }
    in
    let rows o =
      let r = o.Scenario.result in
      let i = string_of_int in
      (("victim domain", i r.As_scenario.r_victim_domain)
      ::
      (match r.As_scenario.r_ctl with
      | Some ctl ->
        [
          ("placement installs", i (Placement_ctl.installs ctl));
          ("placement reclaims", i (Placement_ctl.reclaims ctl));
          ("placement frontier pushes", i (Placement_ctl.pushes ctl));
        ]
      | None -> []))
      @
      if shards > 1 then
        let st = r.As_scenario.r_sched_stats in
        let module Sched = Aitf_parallel.Sched in
        [
          ("shards", i shards);
          ( "sync windows (shard / global)",
            Printf.sprintf "%d / %d" st.Sched.windows st.Sched.global_batches );
          ("cross-shard messages", i st.Sched.messages);
          ("deferred mutations", i st.Sched.deferred);
          ("barrier stall (s)", Printf.sprintf "%.3f" st.Sched.stall_seconds);
        ]
      else []
    in
    let meta =
      [
        ("scenario", Json.String "internet");
        ("placement", Json.String (Placement.policy_to_string placement));
        ("seed", Json.Int seed);
        ("duration", Json.Float duration);
        ("domains", Json.Int domains);
        ("sources", Json.Int sources);
        ("attack_rate", Json.Float attack_rate);
        ("contracts", Json.Bool contracts);
        ("byzantine_fraction", Json.Float byzantine_fraction);
        ("shards", Json.Int shards);
      ]
    in
    let title =
      Printf.sprintf "internet result (%s placement)"
        (Placement.policy_to_string placement)
    in
    cli
      (execute { quiet with obs; metrics } ~title ~meta ~rows
         (Scenario.Internet params))
  in
  let term =
    Term.(
      ret
        (const run $ domains $ tier1 $ multihome $ peer_p $ placement
       $ placement_epoch $ sources $ attack_domains $ legit_sources
       $ legit_domains $ attack_rate $ legit_rate $ duration_t 30. $ seed_t
       $ td_t $ overload_t $ filter_capacity_t $ metrics_t $ contracts
       $ byzantine_fraction $ lying_mode $ contract_r1 $ contract_r2
       $ audit_deadline $ audit_grace $ shards $ obs_term))
  in
  Cmd.v
    (Cmd.info "internet"
       ~doc:"DDoS a victim on a generated AS-level Internet (power-law \
             degree, valley-free routing, fluid source pools) under a \
             pluggable filter-placement policy.")
    term

(* --- formulas --------------------------------------------------------------- *)

let formulas_cmd =
  let r1 = Arg.(value & opt (nonneg_float "--r1") 100. & info [ "r1" ] ~doc:"Client->provider request rate R1 (1/s).") in
  let r2 = Arg.(value & opt (nonneg_float "--r2") 1. & info [ "r2" ] ~doc:"Provider->client request rate R2 (1/s).") in
  let t_filter = Arg.(value & opt (pos_float "--t-filter") 60. & info [ "t-filter"; "T" ] ~doc:"Blocking interval T (s).") in
  let t_tmp = Arg.(value & opt (pos_float "--ttmp") 0.6 & info [ "ttmp" ] ~doc:"Temporary filter horizon Ttmp (s).") in
  let td = Arg.(value & opt (nonneg_float "--td") 0. & info [ "td" ] ~doc:"Detection delay Td (s).") in
  let tr = Arg.(value & opt (nonneg_float "--tr") 0.05 & info [ "tr" ] ~doc:"Victim->gateway one-way delay Tr (s).") in
  let n = Arg.(value & opt (min_int "--n" 0) 1 & info [ "n" ] ~doc:"Non-cooperating AITF nodes on the path.") in
  let show r1 r2 t_filter t_tmp td tr n =
    let table =
      Table.create ~title:"Section IV formulas" ~columns:[ "quantity"; "value" ]
    in
    let add k v = Table.add_row table [ k; v ] in
    add "r = n(Td+Tr)/T"
      (Printf.sprintf "%.6f"
         (Formulas.effective_bandwidth_ratio ~n ~td ~tr ~t_filter));
    add "Nv = R1*T (protected flows)"
      (string_of_int (Formulas.protected_flows ~r1 ~t_filter));
    add "nv = R1*Ttmp (victim-gw filters)"
      (string_of_int (Formulas.victim_gateway_filters ~r1 ~t_tmp));
    add "mv = R1*T (victim-gw shadow)"
      (string_of_int (Formulas.victim_gateway_shadow ~r1 ~t_filter));
    add "na = R2*T (attacker-side filters)"
      (string_of_int (Formulas.attacker_gateway_filters ~r2 ~t_filter));
    add "min Ttmp (traceback + handshake)"
      (Printf.sprintf "%.3f" (Formulas.min_t_tmp ~traceback_time:0. ~handshake_time:0.6));
    Table.print table
  in
  let term = Term.(const show $ r1 $ r2 $ t_filter $ t_tmp $ td $ tr $ n) in
  Cmd.v (Cmd.info "formulas" ~doc:"Evaluate the paper's closed-form model.") term

(* --- matrix ----------------------------------------------------------------- *)

let matrix_cmd =
  let module Matrix = Aitf_workload.Matrix in
  let goldens =
    Arg.(value & opt string "test/goldens" & info [ "goldens" ] ~docv:"DIR"
           ~doc:"Directory holding the checked-in golden documents.")
  in
  let bless =
    Arg.(value & flag & info [ "bless" ]
           ~doc:"Regenerate the goldens from this run instead of comparing \
                 (the intentional-change path; see docs/GOLDENS.md).")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"Run only the reduced CI cell set.")
  in
  let only =
    Arg.(value & opt_all string [] & info [ "only" ] ~docv:"CELL"
           ~doc:"Run only the named cell (repeatable).")
  in
  let bench_json =
    Arg.(value & opt (some string) None & info [ "bench-json" ] ~docv:"FILE"
           ~doc:"Write the per-cell perf trajectory (wall-clock, allocated \
                 bytes, peak queue depth, engine events; schema \
                 aitf.matrix-bench/1) — what CI uploads as BENCH_E19.json.")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List the cell ids and exit.")
  in
  let shards =
    Arg.(value & opt (min_int "--shards" 1) 1 & info [ "shards" ] ~docv:"N"
           ~doc:"Run the unpinned internet cells (contract cells included) \
                 on the parallel engine with N shards; -shard<K> cells \
                 keep their pinned count. Span tracing stays on — the \
                 per-cell span_digest in --bench-json is shard-invariant. \
                 Sharded documents still differ from the 1-shard goldens \
                 in outcome scalars, so pair with --bless into a scratch \
                 --goldens directory — the determinism-stress regime CI \
                 uses. See docs/PARALLEL.md.")
  in
  let run goldens bless smoke only bench_json list shards =
    if list then
      List.iter
        (fun c ->
          Printf.printf "%s%s\n" c.Matrix.id
            (if c.Matrix.smoke then "  [smoke]" else ""))
        Matrix.cells
    else begin
      let s =
        Matrix.run ~only ~smoke ~bless ~shards
          ~goldens_dir:goldens ()
      in
      Matrix.print_summary s;
      Option.iter
        (fun file ->
          Aitf_obs.Report.write_json file (Matrix.bench_json s);
          Printf.printf "wrote %s\n" file)
        bench_json;
      if s.Matrix.s_drifted > 0 || s.Matrix.s_missing > 0
         || s.Matrix.s_disagreements > 0
      then exit 1
    end
  in
  let term =
    Term.(
      const run $ goldens $ bless $ smoke $ only $ bench_json $ list $ shards)
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:"Run the golden-trace differential matrix: every topology x \
             engine x fault x adversary x placement cell, byte-compared \
             against checked-in goldens, with the packet-vs-hybrid \
             agreement gate. Exits non-zero on golden drift or a gated \
             disagreement.")
    term

(* --- replay ------------------------------------------------------------------ *)

let replay_cmd =
  let module Replay = Aitf_workload.Replay in
  let shape =
    Arg.(value
         & opt (enum [ ("pulse", `Pulse); ("churn", `Churn);
                       ("booter", `Booter); ("carpet", `Carpet) ]) `Pulse
         & info [ "shape" ] ~docv:"pulse|churn|booter|carpet"
             ~doc:"Attack shape the trace synthesizer generates (ignored \
                   with --trace-in).")
  in
  let trace_in =
    Arg.(value & opt (some string) None & info [ "trace-in" ] ~docv:"FILE"
           ~doc:"Replay this trace file instead of synthesizing one.")
  in
  let emit =
    Arg.(value & flag & info [ "emit-trace" ]
           ~doc:"Print the canonical trace to stdout and exit without \
                 running it.")
  in
  let rate =
    Arg.(value & opt (nonneg_float "--rate") 20e6 & info [ "rate" ]
           ~docv:"BITS/S" ~doc:"Total attack rate per pool.")
  in
  let n =
    Arg.(value & opt (min_int "--sources" 1) 64 & info [ "n"; "sources" ]
           ~docv:"K" ~doc:"Sources per pool.")
  in
  let run shape trace_in emit engine seed duration rate n csv =
    let trace =
      match trace_in with
      | Some file ->
        let ic = open_in_bin file in
        let text =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        (match Replay.parse text with
        | Ok t -> t
        | Error e ->
          Printf.eprintf "aitf_sim replay: %s: %s\n" file e;
          exit 1)
      | None -> (
        match shape with
        | `Pulse -> Replay.synth_pulse ~seed ~duration ~rate ~n ()
        | `Churn -> Replay.synth_churn ~seed ~duration ~rate ~n ()
        | `Booter -> Replay.synth_booter ~seed ~duration ~rate ~n ()
        | `Carpet -> Replay.synth_carpet ~seed ~duration ~rate ~n ())
    in
    if emit then begin
      print_string (Replay.to_string trace);
      `Ok ()
    end
    else
      let name =
        match engine with Config.Packet -> "packet" | Config.Hybrid -> "hybrid"
      in
      cli
        (execute { quiet with csv }
           ~title:(Printf.sprintf "replay result (%s engine)" name)
           ~meta:[] ~rows:(fun _ -> [])
           (Scenario.Replay (trace, engine)))
  in
  let term =
    Term.(
      ret
        (const run $ shape $ trace_in $ emit $ engine_t $ seed_t
       $ duration_t 30. $ rate $ n $ csv_t))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Drive a trace-driven attack (pulsing, churn, booter bursts, \
             carpet bombing — synthesized or from a file) through either \
             engine.")
    term

let () =
  let info =
    Cmd.info "aitf_sim" ~version:"1.0.0"
      ~doc:"Active Internet Traffic Filtering simulator (Argyraki & Cheriton)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; flood_cmd; swarm_cmd; internet_cmd; matrix_cmd;
            replay_cmd; formulas_cmd;
          ]))
