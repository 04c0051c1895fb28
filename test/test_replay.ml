(* Tier-1 coverage for the trace-driven replay workload: the codec
   round-trip property (parse after to_string is the identity, and
   serializing again is byte-identical — the foundation of goldens that
   embed a trace), the synthesizers' seed determinism, the parser's
   rejection surface, and dual-engine run determinism on a tiny trace. *)

module Replay = Aitf_workload.Replay
module Series = Aitf_stats.Series
module Config = Aitf_core.Config
open Aitf_net

let check = Alcotest.check
let checkb = check Alcotest.bool
let checki = check Alcotest.int

(* --- random traces ---------------------------------------------------------- *)

(* Structured generator obeying the grammar's validity rules: unique
   pool ids, n >= 1, finite rates >= 0, non-decreasing event times >= 0,
   join/leave counts >= 1. Floats exercise the shortest-roundtrip
   printer with awkward values (fractions that are exact in binary plus
   arbitrary multiples of irrational-ish steps). *)
let trace_gen =
  let open QCheck.Gen in
  let rate =
    oneof
      [
        map (fun i -> float_of_int i /. 8.) (int_range 0 2_000_000);
        map (fun i -> float_of_int i *. 0.3) (int_range 0 1_000_000);
      ]
  in
  let time = map (fun i -> float_of_int i /. 64.) (int_range 0 4096) in
  let pool j =
    map3
      (fun n r attack ->
        {
          Replay.p_id = Printf.sprintf "p%d" j;
          p_base = Addr.of_octets (32 + (8 * j)) 0 0 0;
          p_n = n;
          p_rate = r;
          p_attack = attack;
        })
      (int_range 1 4096) rate bool
  in
  let action =
    oneof
      [
        return Replay.On;
        return Replay.Off;
        map (fun k -> Replay.Join k) (int_range 1 99);
        map (fun k -> Replay.Leave k) (int_range 1 99);
      ]
  in
  int_range 1 4 >>= fun npools ->
  flatten_l (List.init npools pool) >>= fun pools ->
  int_range 0 12 >>= fun nevents ->
  list_repeat nevents (pair time (pair (int_range 0 (npools - 1)) action))
  >>= fun raw ->
  let times = List.sort Float.compare (List.map fst raw) in
  let events =
    List.map2
      (fun t (_, (j, a)) ->
        { Replay.ev_time = t; ev_pool = Printf.sprintf "p%d" j;
          ev_action = a })
      times raw
  in
  map2
    (fun seed dur ->
      {
        Replay.tr_seed = seed;
        tr_duration = dur +. (1. /. 16.);
        tr_pools = pools;
        tr_events = events;
      })
    (int_range (-5) 10_000) time

let trace_arb = QCheck.make ~print:Replay.to_string trace_gen

let roundtrip_property =
  QCheck.Test.make ~name:"parse after to_string is the identity" ~count:300
    trace_arb (fun t ->
      match Replay.parse (Replay.to_string t) with
      | Ok t' ->
        Replay.equal t t'
        && String.equal (Replay.to_string t) (Replay.to_string t')
      | Error e -> QCheck.Test.fail_reportf "canonical form rejected: %s" e)

(* --- synthesizers ----------------------------------------------------------- *)

let shapes =
  [
    ("pulse", fun seed -> Replay.synth_pulse ~pools:2 ~seed ~duration:12.
                            ~rate:10e6 ~n:16 ());
    ("churn", fun seed -> Replay.synth_churn ~seed ~duration:12. ~rate:10e6
                            ~n:16 ());
    ("booter", fun seed -> Replay.synth_booter ~seed ~duration:12.
                             ~rate:10e6 ~n:16 ());
    ("carpet", fun seed -> Replay.synth_carpet ~seed ~duration:12.
                             ~rate:10e6 ~n:16 ());
  ]

let test_synth_deterministic () =
  List.iter
    (fun (name, synth) ->
      checkb (name ^ ": same seed, same trace") true
        (Replay.equal (synth 3) (synth 3));
      checkb (name ^ ": seed changes the trace") true
        (not (Replay.equal (synth 3) (synth 4)));
      match Replay.parse (Replay.to_string (synth 3)) with
      | Ok t -> checkb (name ^ ": self-describing") true
                  (Replay.equal t (synth 3))
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    shapes

(* --- parser rejections ------------------------------------------------------ *)

let rejects what text =
  match Replay.parse text with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail ("accepted " ^ what)

let test_parse_rejections () =
  rejects "empty input" "";
  rejects "missing header" "pool a base=1.2.3.4 n=1 rate=0.0 attack=true\n";
  rejects "bad duration"
    "aitf-replay/1 seed=1 duration=nan\n";
  rejects "zero duration" "aitf-replay/1 seed=1 duration=0.0\n";
  rejects "bad rate"
    "aitf-replay/1 seed=1 duration=5.0\npool a base=1.2.3.4 n=1 rate=wat attack=true\n";
  rejects "negative n"
    "aitf-replay/1 seed=1 duration=5.0\npool a base=1.2.3.4 n=-2 rate=1.0 attack=true\n";
  rejects "undeclared pool"
    "aitf-replay/1 seed=1 duration=5.0\nat 1.0 ghost on\n";
  rejects "decreasing timestamps"
    "aitf-replay/1 seed=1 duration=5.0\n\
     pool a base=1.2.3.4 n=1 rate=1.0 attack=true\n\
     at 2.0 a on\nat 1.0 a off\n";
  rejects "unknown directive"
    "aitf-replay/1 seed=1 duration=5.0\nfrobnicate 12\n";
  rejects "duplicate pool"
    "aitf-replay/1 seed=1 duration=5.0\n\
     pool a base=1.2.3.4 n=1 rate=1.0 attack=true\n\
     pool a base=1.2.3.8 n=1 rate=1.0 attack=true\n";
  rejects "pool over 2^20 sources"
    "aitf-replay/1 seed=1 duration=5.0\n\
     pool a base=32.0.0.0 n=1048577 rate=1.0 attack=true\n";
  rejects "pool past the address space"
    "aitf-replay/1 seed=1 duration=5.0\n\
     pool a base=255.255.255.250 n=10 rate=1.0 attack=true\n";
  (* comments and blank lines are fine *)
  match
    Replay.parse
      "# a comment\n\naitf-replay/1 seed=1 duration=5.0\n\
       pool a base=1.2.3.4 n=2 rate=1000.0 attack=true\nat 1.0 a on\n"
  with
  | Ok t ->
    checki "pools parsed" 1 (List.length t.Replay.tr_pools);
    checki "events parsed" 1 (List.length t.Replay.tr_events)
  | Error e -> Alcotest.fail e

(* --- running ---------------------------------------------------------------- *)

let tiny =
  match
    Replay.parse
      "aitf-replay/1 seed=2 duration=4.0\n\
       pool a base=32.0.0.0 n=4 rate=2000000.0 attack=true\n\
       at 0.5 a on\nat 3.0 a off\n"
  with
  | Ok t -> t
  | Error e -> failwith e

let run_on engine trace =
  Replay.run ~config:{ Config.default with Config.engine } trace

let run_fingerprint engine =
  let r = run_on engine tiny in
  ( r.Replay.rr_attack_received_bytes,
    r.Replay.rr_good_received_bytes,
    r.Replay.rr_requests_sent,
    r.Replay.rr_filters,
    r.Replay.rr_events,
    Series.points r.Replay.rr_victim_rate )

let test_run_deterministic () =
  List.iter
    (fun (name, engine) ->
      checkb (name ^ ": same trace, same result") true
        (run_fingerprint engine = run_fingerprint engine))
    [ ("packet", Config.Packet); ("hybrid", Config.Hybrid) ]

let test_run_suppresses () =
  (* 8 Mbit/s for 2.5 s on, against the default chain: some bytes get
     through before the filter, far less than offered, and at least one
     filter lands under both engines. *)
  let offered = Replay.offered_bytes tiny ~attack:true in
  checkb "offered positive" true (offered > 0.);
  List.iter
    (fun (name, engine) ->
      let r = run_on engine tiny in
      checkb (name ^ ": something arrived") true
        (r.Replay.rr_attack_received_bytes > 0.);
      checkb (name ^ ": most of the attack was filtered") true
        (r.Replay.rr_attack_received_bytes < 0.5 *. offered);
      checkb (name ^ ": a filter landed") true (r.Replay.rr_filters > 0))
    [ ("packet", Config.Packet); ("hybrid", Config.Hybrid) ]

let test_offered_bytes () =
  (* One pool, 4 sources x 2 Mbit/s each (the trace's rate field is per
     source), on from 0.5 to 3.0: exactly 8 Mbit/s x 2.5 s / 8 bytes. *)
  check (Alcotest.float 1e-6) "analytic integral" 2_500_000.
    (Replay.offered_bytes tiny ~attack:true);
  check (Alcotest.float 1e-6) "no legit pool" 0.
    (Replay.offered_bytes tiny ~attack:false)

let () =
  Alcotest.run "aitf_replay"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest roundtrip_property;
          Alcotest.test_case "parser rejections" `Quick
            test_parse_rejections;
        ] );
      ( "synthesizers",
        [
          Alcotest.test_case "seed determinism" `Quick
            test_synth_deterministic;
        ] );
      ( "running",
        [
          Alcotest.test_case "engine determinism" `Quick
            test_run_deterministic;
          Alcotest.test_case "suppression" `Quick test_run_suppresses;
          Alcotest.test_case "offered bytes" `Quick test_offered_bytes;
        ] );
    ]
