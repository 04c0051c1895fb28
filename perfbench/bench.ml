(* perfbench: the simulator's end-to-end and per-layer benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (see workloads.ml) as a closed loop of simulations for
   about S seconds and prints, as its last stdout line, one JSON object
   {correct, attempted, failed, metrics}. With --trace 0 the metrics are the
   end-to-end ones; with --trace 1 a separate, profiled run gives the
   per-layer ones. perfbench/run.py builds this program and runs it;
   perfbench/README.md explains the workloads and how to read the output. *)

module Json = Aitf_obs.Json
module Profile = Aitf_obs.Profile
module W = Workloads

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Words allocated by the whole program, every domain included:
   [Gc.minor_words] would count only the calling domain. [Gc.quick_stat]
   folds a domain's allocation into its counts only at a minor collection
   (minor words) or a major slice (direct major allocations), so both are
   forced first to make the count exact. *)
let gc_stat () =
  Gc.minor ();
  ignore (Gc.major_slice 0);
  Gc.quick_stat ()

let alloc_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let metric name unit value = (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

let print_line fields = print_endline (Json.to_string ~minify:true (Json.Obj fields))

(* --- Run environment --------------------------------------------------- *)

(* OCAMLRUNPARAM keys that change how the GC paces itself: a run under them
   measures a different program from a run without. *)
let gc_keys = [ "s"; "o"; "M"; "m"; "n" ]

let runparam_gc_settings () =
  List.concat_map
    (fun var ->
      match Sys.getenv_opt var with
      | None -> []
      | Some v ->
        String.split_on_char ',' v
        |> List.filter_map (fun entry ->
               let key =
                 match String.index_opt entry '=' with
                 | Some i -> String.sub entry 0 i
                 | None -> entry
               in
               if List.mem key gc_keys then Some (var ^ ": " ^ entry) else None))
    [ "OCAMLRUNPARAM"; "CAMLRUNPARAM" ]

let env_json () =
  let g = Gc.get () in
  let var v = match Sys.getenv_opt v with Some s -> Json.String s | None -> Json.Null in
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("profile", Json.String Build_info.profile);
      ( "gc",
        Json.Obj
          [
            ("minor_heap_size", Json.Int g.Gc.minor_heap_size);
            ("space_overhead", Json.Int g.Gc.space_overhead);
            ("custom_major_ratio", Json.Int g.Gc.custom_major_ratio);
            ("custom_minor_ratio", Json.Int g.Gc.custom_minor_ratio);
            ("custom_minor_max_size", Json.Int g.Gc.custom_minor_max_size);
          ] );
      ("OCAMLRUNPARAM", var "OCAMLRUNPARAM");
      ("CAMLRUNPARAM", var "CAMLRUNPARAM");
    ]

(* --- Spans around the benchmark's own calls into each layer ------------- *)

type span = { id : int; parent : int option; name : string; start : float; stop : float }

let spans = ref []
let span_stack = ref []
let next_span = ref 0

let span name f =
  let id = !next_span in
  incr next_span;
  let parent = match !span_stack with p :: _ -> Some p | [] -> None in
  span_stack := id :: !span_stack;
  let start = now () in
  Fun.protect f ~finally:(fun () ->
      spans := { id; parent; name; start; stop = now () } :: !spans;
      span_stack := List.tl !span_stack)

let write_spans path =
  let json s =
    Json.Obj
      [
        ("id", Json.Int s.id);
        ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
        ("name", Json.String s.name);
        ("start", Json.Float s.start);
        ("end", Json.Float s.stop);
      ]
  in
  (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
  let oc = open_out path in
  output_string oc (Json.to_string (Json.List (List.rev_map json !spans)));
  output_char oc '\n';
  close_out oc

(* --- Timed simulations -------------------------------------------------- *)

(* The machine's speed drifts by up to 2x, in phases from seconds to minutes
   long, and a whole run can fall into a slow one. A fixed kernel that uses
   nothing of the simulator is timed between every two timed pairs on the
   same thread, so it runs in the same phase as its neighbours; each
   simulation's time is divided by the mean of the kernels around it, which
   cancels the phase. README.md gives the measurements. *)
let kernel () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0. and l = ref [] in
  for i = 0 to 600_000 do
    Hashtbl.replace h (i land 4095) (float_of_int i);
    acc := !acc +. Option.value ~default:1. (Hashtbl.find_opt h ((i * 7) land 4095));
    if i land 7 = 0 then l := (i, !acc) :: !l;
    if i land 4095 = 0 then l := []
  done;
  ignore (Sys.opaque_identity (!acc, !l))

(* The kernel's time on the reference host (2-vCPU KVM guest) in a fast
   phase: a time in kernels times this reads as that host's seconds. *)
let kernel_ref_s = 0.05

let last_kernel = ref nan

let calibrate () =
  let t0 = now () in
  kernel ();
  last_kernel := now () -. t0

type tally = { mutable attempted : int; mutable failed : int }

(* One simulation's wall time and GC work, program-wide. *)
type timing = { secs : float; words : float; minor : int; major : int; promoted : float }

(* One round of an input: a set-up build, then the full simulation, and the
   mean of the kernels timed just before and just after the two. *)
type round = { setup : timing; rep : timing; kernel_s : float }

(* One input: its workload instance, its first outcome (every later one
   must equal it) and its rounds so far. *)
type input = { w : W.t; mutable first : W.outcome option; mutable rounds : round list }

let input w = { w; first = None; rounds = [] }

(* Run [f] as one attempted operation; an exception counts as failed. *)
let timed t name f =
  t.attempted <- t.attempted + 1;
  let g0 = gc_stat () in
  let t0 = now () in
  match f () with
  | exception e ->
    t.failed <- t.failed + 1;
    Printf.eprintf "%s: raised %s\n%!" name (Printexc.to_string e);
    None
  | r ->
    let secs = now () -. t0 in
    let g1 = gc_stat () in
    Some
      ( {
          secs;
          words = alloc_words g1 -. alloc_words g0;
          minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
          major = g1.Gc.major_collections - g0.Gc.major_collections;
          promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        },
        r )

(* A full simulation [run] of [i], checked against the paper's claims and
   against the outcome it must repeat, [against]; [None] (and counted as
   failed) otherwise. *)
let checked t i run ~against =
  match timed t i.w.W.name run with
  | None -> None
  | Some ((_, r) as x) -> (
    let o = r.W.outcome in
    let fail why =
      t.failed <- t.failed + 1;
      Printf.eprintf "%s: %s\n%!" i.w.W.name why;
      None
    in
    match (i.w.W.check o, against) with
    | Error why, _ -> fail why
    | Ok (), Some o1 when o <> o1 ->
      fail ("outcome differs from the first: " ^ Json.to_string ~minify:true (W.outcome_json o))
    | Ok (), _ -> Some x)

let rep_once t i =
  let x = checked t i i.w.W.run ~against:i.first in
  (match x with Some (_, r) when i.first = None -> i.first <- Some r.W.outcome | _ -> ());
  x

(* A set-up build and a full simulation of [i], then a kernel; [between]
   runs between the two simulations. The round is returned if both
   succeeded. *)
let round_once ?(between = ignore) t i =
  let before = !last_kernel in
  let setup = timed t i.w.W.name i.w.W.setup in
  between ();
  let rep = rep_once t i in
  calibrate ();
  match (setup, rep) with
  | Some (setup, ()), Some (rep, r) ->
    Some ({ setup; rep; kernel_s = (before +. !last_kernel) /. 2. }, r)
  | _ -> None

(* [step k i] for k = 0, 1, ... over the inputs [ins] in turn, until the
   next step would end past [deadline]; every input gets at least one. *)
let rounds ~deadline ins step =
  let ins = Array.of_list ins in
  let n = Array.length ins in
  let rec go k last =
    if k < n || now () +. last <= deadline then begin
      let t0 = now () in
      step k ins.(k mod n);
      go (k + 1) (now () -. t0)
    end
  in
  go 0 0.

(* Seconds of the set-up and of the simulation net of its set-up, in
   kernels times [kernel_ref_s]: the median over an input's rounds. *)
let setup_secs i = median (List.map (fun r -> r.setup.secs /. r.kernel_s) i.rounds) *. kernel_ref_s

let run_secs i =
  median (List.map (fun r -> (r.rep.secs -. r.setup.secs) /. r.kernel_s) i.rounds) *. kernel_ref_s

let result t metrics =
  print_line
    [
      ("correct", Json.Bool (t.failed = 0 && t.attempted > 0));
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ("metrics", Json.Obj metrics);
    ]

let describe ins =
  let floats f i = Json.List (List.rev_map (fun r -> Json.Float (f r)) i.rounds) in
  print_line
    [
      ( "inputs",
        Json.List
          (List.map
             (fun i ->
               Json.Obj
                 [
                   ("outcome", match i.first with Some o -> W.outcome_json o | None -> Json.Null);
                   ("setup_s", floats (fun r -> r.setup.secs) i);
                   ("rep_s", floats (fun r -> r.rep.secs) i);
                   ("kernel_s", floats (fun r -> r.kernel_s) i);
                   ("rep_words", floats (fun r -> r.rep.words) i);
                 ])
             ins) );
    ]

let end_to_end ins ~seconds =
  let t = { attempted = 0; failed = 0 } in
  (* An untimed warm-up build per input, then rounds of one set-up build
     and one full simulation per input. *)
  List.iter (fun i -> ignore (timed t i.w.W.name i.w.W.setup)) ins;
  calibrate ();
  (* The first round of each input starts its simulation on a collected
     heap, as in a fresh process, and the heap's peak is read after them:
     the largest heap one simulation needs. Later rounds leave the GC
     alone. *)
  let n = List.length ins in
  let top_heap = ref 0 in
  rounds ~deadline:(now () +. seconds) ins (fun k i ->
      let between () = if k < n then Gc.full_major () in
      (match round_once ~between t i with
      | Some (r, _) -> i.rounds <- r :: i.rounds
      | None -> ());
      if k = n - 1 then top_heap := (gc_stat ()).Gc.top_heap_words);
  describe ins;
  let n = float_of_int n in
  let sum f = List.fold_left (fun acc i -> acc +. f i) 0. ins in
  (* Words of a whole simulation, set-up included. *)
  let words i = median (List.map (fun r -> r.rep.words) i.rounds) in
  let hops i = match i.first with Some o -> float_of_int o.W.hops | None -> nan in
  result t
    [
      metric "run_s" "s" (sum run_secs /. n);
      metric "setup_s" "s" (sum setup_secs /. n);
      metric "hops_per_s" "1/s" (sum hops /. sum run_secs);
      metric "alloc_mwords" "Mwords" (sum words /. n /. 1e6);
      metric "peak_heap_mb" "MB" (float_of_int (!top_heap * (Sys.word_size / 8)) /. 1e6);
    ]

(* --- Traced run ---------------------------------------------------------- *)

(* Profiler labels (Sim.at ~label) grouped into the per-layer time metrics. *)
let label_groups =
  [
    ("net.link_tx_s", [ "link-tx" ]);
    ("net.link_delivery_s", [ "link-delivery"; "xshard-delivery"; "local-deliver" ]);
    ("filter.expiry_s", [ "filter-expiry"; "shadow-expiry" ]);
    ("core.detection_s", [ "detection-td" ]);
    ("core.handshake_s", [ "handshake-rto"; "victim-retry" ]);
    ("flowsim.sampler_s", [ "fluid-sampler" ]);
    ("flowsim.recompute_s", [ "fluid-recompute" ]);
    ("flowsim.epoch_s", [ "fluid-epoch" ]);
    ("workload.traffic_s", [ "traffic" ]);
    ("workload.unlabelled_s", [ "other" ]);
  ]

let is_gateway_timer label = String.length label > 3 && String.sub label 0 3 = "gw-"

(* The per-layer run, on the first input only: a round (set-up build and
   untraced simulation) and a profiled simulation alternate, so that their
   ratio, trace.overhead, compares like phases of the machine; then three
   runs of the input's 2-shard twin, the set-up split and the micro
   ledger. *)
let traced i ~seconds =
  let start = now () in
  let by frac = start +. (frac *. seconds) in
  let t = { attempted = 0; failed = 0 } in
  let prof = Profile.create () in
  let profiled = ref [] in
  span "warm-up" (fun () -> ignore (timed t i.w.W.name i.w.W.setup));
  calibrate ();
  rounds ~deadline:(by 0.6) [ i ] (fun _ i ->
      match span "round" (fun () -> round_once t i) with
      | None -> ()
      | Some (r, _) -> (
        i.rounds <- r :: i.rounds;
        Profile.attach prof;
        Fun.protect ~finally:Profile.detach (fun () ->
            match span "run.traced" (fun () -> rep_once t i) with
            | Some x -> profiled := (r, x) :: !profiled
            | None -> ())));
  let sharded =
    match i.w.W.sharded with
    | None -> []
    | Some run ->
      (* Its outcome legitimately differs from the 1-shard one (ROADMAP
         item 3b), so each run must repeat the first 2-shard outcome. *)
      span "run.2shard" (fun () ->
          List.fold_left
            (fun acc _ ->
              let against =
                match List.rev acc with (r : W.rep) :: _ -> Some r.W.outcome | [] -> None
              in
              match checked t i run ~against with Some (_, r) -> r :: acc | None -> acc)
            [] [ 1; 2; 3 ])
  in
  let split =
    let runs = span "setup.split" (fun () -> List.init 3 (fun _ -> i.w.W.setup_split ())) in
    List.map (fun (k, _) -> (k, median (List.map (List.assoc k) runs))) (List.hd runs)
  in
  let micro = span "micro" (fun () -> Micro.run ~deadline:(by 0.95)) in
  write_spans (Printf.sprintf "perfbench/out/spans-%s.json" i.w.W.name);
  let n_profiled = float_of_int (List.length !profiled) in
  let per_sim s = s /. n_profiled in
  let buckets = Profile.buckets prof in
  let seconds_of labels =
    per_sim (List.fold_left (fun acc (l, (_, s)) -> if labels l then acc +. s else acc) 0. buckets)
  in
  print_line
    [
      ( "labels",
        Json.Obj
          (List.map
             (fun (l, (n, s)) ->
               ( l,
                 Json.Obj
                   [
                     ("events", Json.Float (float_of_int n /. n_profiled));
                     ("seconds", Json.Float (per_sim s));
                   ] ))
             buckets) );
    ];
  let counts = match !profiled with (_, (_, r)) :: _ -> r.W.counts | [] -> [] in
  let count k = match List.assoc_opt k counts with Some v -> v | None -> 0. in
  (* The Sched layer's counts, from the 2-shard twin; a single shard has no
     windows and an imbalance of 1. *)
  let sched k =
    let of_rep (r : W.rep) = Option.value ~default:0. (List.assoc_opt k r.W.counts) in
    match sharded with
    | [] -> if k = "sched.shard_imbalance" then 1. else 0.
    | rs -> median (List.map of_rep rs)
  in
  let outcome f = match i.first with Some o -> float_of_int (f o) | None -> nan in
  let gc f = median (List.map (fun r -> f r.rep) i.rounds) in
  let overhead (r, (p, _)) = (p.secs -. r.setup.secs) /. (r.rep.secs -. r.setup.secs) in
  let m = metric in
  result t
    ([
       m "engine.events" "count" (outcome (fun o -> o.W.events));
       m "engine.peak_pending" "count" (float_of_int (Profile.peak_pending prof));
       m "net.hops" "count" (outcome (fun o -> o.W.hops));
       m "net.drops" "count" (count "net.drops");
       m "filter.installs" "count" (outcome (fun o -> o.W.installs));
       m "filter.peak_slots" "count" (outcome (fun o -> o.W.peak_slots));
       m "core.gateway_timers_s" "s" (seconds_of is_gateway_timer);
       m "core.requests_sent" "count" (count "core.requests_sent");
       m "flowsim.recomputes" "count" (count "flowsim.recomputes");
       m "flowsim.link_visits" "count" (count "flowsim.link_visits");
       m "placement.evidence" "count" (count "placement.evidence");
       m "placement.installs" "count" (count "placement.installs");
       m "placement.reclaims" "count" (count "placement.reclaims");
       m "sched.windows" "count" (sched "sched.windows");
       m "sched.global_batches" "count" (sched "sched.global_batches");
       m "sched.messages" "count" (sched "sched.messages");
       m "sched.deferred" "count" (sched "sched.deferred");
       m "sched.window_s" "s" (sched "sched.window_s");
       m "sched.shard_imbalance" "ratio" (sched "sched.shard_imbalance");
       m "gc.minor_collections" "count" (gc (fun tm -> float_of_int tm.minor));
       m "gc.major_collections" "count" (gc (fun tm -> float_of_int tm.major));
       m "gc.promoted_mwords" "Mwords" (gc (fun tm -> tm.promoted) /. 1e6);
       m "trace.overhead" "ratio" (median (List.map overhead !profiled));
     ]
    @ List.map (fun (name, labels) -> m name "s" (seconds_of (fun l -> List.mem l labels))) label_groups
    @ List.map (fun (k, v) -> m k "s" v) split
    @ List.map (fun (k, unit, v) -> m k unit v) micro)

(* --- Command line -------------------------------------------------------- *)

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" W.names);
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S how long the run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("bench: " ^ msg);
    exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then fail usage;
  (match runparam_gc_settings () with
  | [] -> ()
  | s ->
    fail
      ("refusing to run with GC settings changed (" ^ String.concat "; " s
     ^ "): the run would measure a different program"));
  let ins =
    match W.inputs !workload ~seed:!seed with
    | Some ws -> List.map input ws
    | None -> fail ("unknown workload " ^ !workload ^ "; one of " ^ String.concat ", " W.names)
  in
  print_line [ ("env", env_json ()) ];
  (* Wall-clock barrier accounting (sched.window_s), as the CLI installs. *)
  Aitf_parallel.Sched.set_default_clock Unix.gettimeofday;
  let seconds = float_of_int !seconds in
  if !trace = 0 then end_to_end ins ~seconds else traced (List.hd ins) ~seconds
