(* Tests for aitf_engine: heap, event queue, simulation clock, timers, RNG
   and tracing. *)

module Heap = Aitf_engine.Heap
module Event_queue = Aitf_engine.Event_queue
module Sim = Aitf_engine.Sim
module Timer = Aitf_engine.Timer
module Rng = Aitf_engine.Rng

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf = check (Alcotest.float 1e-9)

(* --- Heap ---------------------------------------------------------------- *)

let int_heap () = Heap.create ~cmp:Int.compare

let test_heap_empty () =
  let h = int_heap () in
  checki "length" 0 (Heap.length h);
  checkb "is_empty" true (Heap.is_empty h);
  checkb "peek" true (Heap.peek h = None);
  checkb "pop" true (Heap.pop h = None)

let test_heap_ordering () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ];
  let out = List.init 10 (fun _ -> Option.get (Heap.pop h)) in
  check (Alcotest.list Alcotest.int) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] out

let test_heap_duplicates () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 2; 1; 2; 1; 2 ];
  let out = List.init 5 (fun _ -> Option.get (Heap.pop h)) in
  check (Alcotest.list Alcotest.int) "dups" [ 1; 1; 2; 2; 2 ] out

let test_heap_peek_stable () =
  let h = int_heap () in
  Heap.push h 4;
  Heap.push h 2;
  checkb "peek is min" true (Heap.peek h = Some 2);
  checki "peek does not remove" 2 (Heap.length h)

let test_heap_clear () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  checkb "empty after clear" true (Heap.is_empty h);
  Heap.push h 7;
  checkb "usable after clear" true (Heap.pop h = Some 7)

let test_heap_interleaved () =
  let h = int_heap () in
  Heap.push h 5;
  Heap.push h 1;
  checkb "pop1" true (Heap.pop h = Some 1);
  Heap.push h 0;
  Heap.push h 3;
  checkb "pop2" true (Heap.pop h = Some 0);
  checkb "pop3" true (Heap.pop h = Some 3);
  checkb "pop4" true (Heap.pop h = Some 5);
  checkb "pop5" true (Heap.pop h = None)

let test_heap_to_list () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  let l = List.sort Int.compare (Heap.to_list h) in
  check (Alcotest.list Alcotest.int) "contents" [ 1; 2; 3 ] l

let heap_qcheck =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = int_heap () in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

(* --- Event queue --------------------------------------------------------- *)

let drain_queue q =
  let rec go () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, _, f) ->
      f ();
      go ()
  in
  go ()

let test_eq_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  let ev name () = log := name :: !log in
  ignore (Event_queue.schedule q ~time:2.0 (ev "b"));
  ignore (Event_queue.schedule q ~time:1.0 (ev "a"));
  ignore (Event_queue.schedule q ~time:3.0 (ev "c"));
  drain_queue q;
  check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_eq_fifo_ties () =
  let q = Event_queue.create () in
  let log = ref [] in
  List.iter
    (fun name ->
      ignore
        (Event_queue.schedule q ~time:1.0 (fun () -> log := name :: !log)))
    [ "first"; "second"; "third" ];
  drain_queue q;
  check
    (Alcotest.list Alcotest.string)
    "fifo among equal timestamps"
    [ "first"; "second"; "third" ]
    (List.rev !log)

let test_eq_cancel () =
  let q = Event_queue.create () in
  let fired = ref false in
  let h = Event_queue.schedule q ~time:1.0 (fun () -> fired := true) in
  Event_queue.cancel h;
  checkb "cancelled flag" true (Event_queue.is_cancelled h);
  checkb "empty after cancel" true (Event_queue.is_empty q);
  checkb "pop skips cancelled" true (Event_queue.pop q = None);
  checkb "never fired" false !fired

let test_eq_cancel_idempotent () =
  let q = Event_queue.create () in
  let h = Event_queue.schedule q ~time:1.0 (fun () -> ()) in
  Event_queue.cancel h;
  Event_queue.cancel h;
  checkb "still empty" true (Event_queue.is_empty q)

let test_eq_next_time () =
  let q = Event_queue.create () in
  checkb "no next" true (Event_queue.next_time q = None);
  let h = Event_queue.schedule q ~time:5.0 (fun () -> ()) in
  ignore (Event_queue.schedule q ~time:7.0 (fun () -> ()));
  checkb "next is 5" true (Event_queue.next_time q = Some 5.0);
  Event_queue.cancel h;
  checkb "next skips cancelled" true (Event_queue.next_time q = Some 7.0)

let test_eq_rejects_nonfinite () =
  let q = Event_queue.create () in
  checkb "rejects nan" true
    (try
       ignore (Event_queue.schedule q ~time:Float.nan (fun () -> ()));
       false
     with Invalid_argument _ -> true)

(* Differential property: random interleavings of [schedule], [take] and
   [cancel] against a sorted-list model of the pending events, ordered by
   (time, seq). Timestamps come from five values, so exact ties are common
   and pop order rests on the insertion-order tie-break. A case runs up to
   2000 operations, growing the queue to a few hundred events (past the
   4-ary heap's fourth level and several doublings) and, in the final
   drain, back down through the shrink points. [Cancel] picks any handle
   ever scheduled: pending, already cancelled or already taken. [Reserve]
   takes a ticket and [Redeem] schedules the oldest outstanding one, often
   after events scheduled later have been scheduled and taken: it must
   still sit where its reserved seq puts it. *)
type eq_op = Schedule of int | Take | Cancel of int | Reserve | Redeem of int

let eq_times = [| 0.; 0.5; 1.; 1.5; 2. |]

let eq_model_agrees =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun k -> Schedule k) (int_bound 4));
          (3, return Take);
          (2, map (fun i -> Cancel i) nat);
          (1, return Reserve);
          (1, map (fun k -> Redeem k) (int_bound 4));
        ])
  in
  let show = function
    | Schedule k -> Printf.sprintf "S%g" eq_times.(k)
    | Take -> "T"
    | Cancel i -> Printf.sprintf "C%d" i
    | Reserve -> "R"
    | Redeem k -> Printf.sprintf "D%g" eq_times.(k)
  in
  QCheck.Test.make ~name:"event queue matches a sorted-list model" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map show ops))
       QCheck.Gen.(list_size (int_bound 2000) op))
    (fun ops ->
      let q = Event_queue.create () in
      let fired = ref (-1) in
      (* Pending events as (time, seq), sorted by time then seq. *)
      let model = ref [] in
      (* Every handle ever scheduled, with its seq; seqs ever minted. *)
      let handles = ref [||] and n_handles = ref 0 and seqs = ref 0 in
      (* Reserved tickets not yet scheduled, oldest first, with their seq. *)
      let tickets = Queue.create () in
      let cancelled = ref 0 and peak = ref 0 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let take_one () =
        match !model with
        | [] -> expect (Event_queue.is_empty q)
        | (t, seq) :: rest ->
          let e = Event_queue.take q in
          Event_queue.fire e;
          expect (!fired = seq && Event_queue.time e = t);
          model := rest
      in
      let add t seq h =
        if !n_handles = Array.length !handles then
          handles := Array.append !handles (Array.make (max 16 !n_handles) (h, seq));
        !handles.(!n_handles) <- (h, seq);
        incr n_handles;
        let before, after =
          List.partition (fun key -> compare key (t, seq) < 0) !model
        in
        model := before @ ((t, seq) :: after);
        peak := max !peak (List.length !model)
      in
      let step = function
        | Schedule k ->
          let t = eq_times.(k) and seq = !seqs in
          incr seqs;
          add t seq (Event_queue.schedule q ~time:t (fun () -> fired := seq))
        | Reserve ->
          Queue.push (Event_queue.reserve q, !seqs) tickets;
          incr seqs
        | Redeem k -> (
          match Queue.take_opt tickets with
          | None -> ()
          | Some (ticket, seq) ->
            let t = eq_times.(k) in
            add t seq
              (Event_queue.schedule_ticket q ticket ~time:t (fun () ->
                   fired := seq)))
        | Take -> take_one ()
        | Cancel i ->
          if !n_handles > 0 then begin
            let h, seq = !handles.(i mod !n_handles) in
            Event_queue.cancel h;
            if List.exists (fun (_, s) -> s = seq) !model then begin
              incr cancelled;
              model := List.filter (fun (_, s) -> s <> seq) !model
            end
          end
      in
      let counters () =
        expect (Event_queue.length q = List.length !model);
        expect (Event_queue.max_length q = !peak);
        expect (Event_queue.total_cancelled q = !cancelled);
        expect (Event_queue.total_scheduled q = !seqs)
      in
      List.iter
        (fun op ->
          step op;
          counters ())
        ops;
      while !model <> [] do
        take_one ();
        counters ()
      done;
      expect (Event_queue.is_empty q);
      !ok)

(* A fired event's closure is not retained by the queue. The tracked
   event is scheduled last, into the heap's last slot, so the first [take]
   moves it out of that slot: a vacated slot left holding its old event
   would pin the closure after it has run, while 50 events stay queued. *)
let test_eq_no_retention () =
  let q = Event_queue.create () in
  for i = 1 to 100 do
    ignore (Event_queue.schedule q ~time:(float_of_int i) ignore)
  done;
  let w = Weak.create 1 in
  (let payload = Bytes.create 64 in
   let action () = ignore (Sys.opaque_identity payload) in
   Weak.set w 0 (Some (Obj.repr action));
   ignore (Event_queue.schedule q ~time:50.5 action));
  for _ = 1 to 51 do
    Event_queue.fire (Event_queue.take q)
  done;
  Gc.full_major ();
  checkb "fired closure collected" false (Weak.check w 0);
  checki "others still queued" 50 (Event_queue.length q)

(* --- Sim ----------------------------------------------------------------- *)

let test_sim_runs_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.at sim 2.0 (fun () -> log := ("b", Sim.now sim) :: !log));
  ignore (Sim.at sim 1.0 (fun () -> log := ("a", Sim.now sim) :: !log));
  Sim.run sim;
  match List.rev !log with
  | [ ("a", t1); ("b", t2) ] ->
    checkf "t1" 1.0 t1;
    checkf "t2" 2.0 t2
  | _ -> Alcotest.fail "wrong event sequence"

let test_sim_after () =
  let sim = Sim.create () in
  let seen = ref 0. in
  ignore
    (Sim.at sim 1.0 (fun () ->
         ignore (Sim.after sim 0.5 (fun () -> seen := Sim.now sim))));
  Sim.run sim;
  checkf "after is relative" 1.5 !seen

let test_sim_negative_delay_clamped () =
  let sim = Sim.create () in
  let seen = ref (-1.) in
  ignore (Sim.after sim (-5.) (fun () -> seen := Sim.now sim));
  Sim.run sim;
  checkf "clamped to now" 0.0 !seen

let test_sim_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.at sim 1.0 (fun () -> ()));
  Sim.run sim;
  checkb "raises on past" true
    (try
       ignore (Sim.at sim 0.5 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Sim.at sim t (fun () -> fired := t :: !fired)))
    [ 1.0; 2.0; 3.0 ];
  Sim.run ~until:2.5 sim;
  check (Alcotest.list (Alcotest.float 0.)) "only first two" [ 1.0; 2.0 ]
    (List.rev !fired);
  checkf "clock advanced to horizon" 2.5 (Sim.now sim);
  Sim.run sim;
  checkf "remaining event runs later" 3.0 (Sim.now sim)

let test_sim_stop () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore
      (Sim.at sim (float_of_int i) (fun () ->
           incr count;
           if !count = 3 then Sim.stop sim))
  done;
  Sim.run sim;
  checki "stopped after 3" 3 !count

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.at sim 1.0 (fun () -> fired := true) in
  Sim.cancel h;
  Sim.run sim;
  checkb "cancelled event did not fire" false !fired

let test_sim_events_processed () =
  let sim = Sim.create () in
  for i = 1 to 5 do
    ignore (Sim.at sim (float_of_int i) (fun () -> ()))
  done;
  Sim.run sim;
  checki "count" 5 (Sim.events_processed sim)

let test_sim_max_events () =
  let sim = Sim.create () in
  let count = ref 0 in
  (* A self-perpetuating loop: without the budget this never ends. *)
  let rec forever () =
    ignore (Sim.after sim 0.1 (fun () -> incr count; forever ()))
  in
  forever ();
  Sim.run ~max_events:25 sim;
  checki "stopped at the budget" 25 !count;
  (* The clock must not jump to a horizon it never reached. *)
  let sim2 = Sim.create () in
  let rec forever2 () =
    ignore (Sim.after sim2 0.1 (fun () -> forever2 ()))
  in
  forever2 ();
  Sim.run ~until:100.0 ~max_events:5 sim2;
  checkb "clock reflects actual progress" true (Sim.now sim2 < 1.0)

let test_sim_scheduling_inside_event () =
  let sim = Sim.create () in
  let depth = ref 0 in
  let rec go n =
    if n > 0 then
      ignore
        (Sim.after sim 1.0 (fun () ->
             incr depth;
             go (n - 1)))
  in
  go 4;
  Sim.run sim;
  checki "chained events" 4 !depth;
  checkf "time" 4.0 (Sim.now sim)

(* --- Timer --------------------------------------------------------------- *)

let test_timer_one_shot () =
  let sim = Sim.create () in
  let at = ref 0. in
  let (_ : Timer.t) =
    Timer.one_shot sim ~delay:2.5 (fun () -> at := Sim.now sim)
  in
  Sim.run sim;
  checkf "fired at delay" 2.5 !at

let test_timer_periodic () =
  let sim = Sim.create () in
  let times = ref [] in
  let t =
    Timer.periodic sim ~period:1.0 (fun () -> times := Sim.now sim :: !times)
  in
  ignore (Sim.at sim 3.5 (fun () -> Timer.cancel t));
  Sim.run sim;
  check (Alcotest.list (Alcotest.float 1e-9)) "ticks" [ 1.0; 2.0; 3.0 ]
    (List.rev !times)

let test_timer_periodic_start () =
  let sim = Sim.create () in
  let times = ref [] in
  let t =
    Timer.periodic ~start:0.2 sim ~period:1.0 (fun () ->
        times := Sim.now sim :: !times)
  in
  ignore (Sim.at sim 2.5 (fun () -> Timer.cancel t));
  Sim.run sim;
  check (Alcotest.list (Alcotest.float 1e-9)) "ticks" [ 0.2; 1.2; 2.2 ]
    (List.rev !times)

let test_timer_cancel_before_fire () =
  let sim = Sim.create () in
  let fired = ref false in
  let t = Timer.one_shot sim ~delay:1.0 (fun () -> fired := true) in
  Timer.cancel t;
  Sim.run sim;
  checkb "never fired" false !fired;
  checkb "not active" false (Timer.active t)

let test_timer_reschedule () =
  let sim = Sim.create () in
  let at = ref 0. in
  let t = Timer.one_shot sim ~delay:1.0 (fun () -> at := Sim.now sim) in
  ignore (Sim.at sim 0.5 (fun () -> Timer.reschedule t ~delay:2.0));
  Sim.run sim;
  checkf "pushed back" 2.5 !at

let test_timer_periodic_invalid () =
  let sim = Sim.create () in
  checkb "rejects non-positive period" true
    (try
       ignore (Timer.periodic sim ~period:0. (fun () -> ()));
       false
     with Invalid_argument _ -> true)

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  check (Alcotest.list Alcotest.int) "same seed same stream" (seq a) (seq b)

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1_000_000) in
  checkb "different" false (seq a = seq b)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:3 in
  let child = Rng.split parent in
  let s1 = List.init 10 (fun _ -> Rng.int child 100) in
  let parent' = Rng.create ~seed:3 in
  let child' = Rng.split parent' in
  let s2 = List.init 10 (fun _ -> Rng.int child' 100) in
  check (Alcotest.list Alcotest.int) "reproducible" s1 s2

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~rate:4.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 1/rate" true (Float.abs (mean -. 0.25) < 0.01)

let test_rng_uniform_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.uniform r ~lo:2.0 ~hi:3.0 in
    if v < 2.0 || v >= 3.0 then Alcotest.fail "uniform out of bounds"
  done

let test_rng_bernoulli_extremes () =
  let r = Rng.create ~seed:5 in
  checkb "p=0" false (Rng.bernoulli r ~p:0.);
  checkb "p=1" true (Rng.bernoulli r ~p:1.)

let test_rng_bernoulli_frequency () =
  let r = Rng.create ~seed:13 in
  let n = 10_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r ~p:0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  checkb "frequency near p" true (Float.abs (f -. 0.3) < 0.02)

let test_rng_pareto_minimum () =
  let r = Rng.create ~seed:17 in
  for _ = 1 to 1000 do
    if Rng.pareto r ~shape:1.5 ~scale:2.0 < 2.0 then
      Alcotest.fail "pareto below scale"
  done

let test_rng_zipf_bounds_and_skew () =
  let r = Rng.create ~seed:19 in
  let counts = Array.make 11 0 in
  for _ = 1 to 10_000 do
    let k = Rng.zipf r ~n:10 ~s:1.2 in
    if k < 1 || k > 10 then Alcotest.fail "zipf out of range";
    counts.(k) <- counts.(k) + 1
  done;
  checkb "rank 1 most frequent" true (counts.(1) > counts.(2));
  checkb "rank 2 beats rank 10" true (counts.(2) > counts.(10))

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:23 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  check (Alcotest.list Alcotest.int) "same elements" (List.init 50 Fun.id)
    (Array.to_list sorted)

let test_rng_pick () =
  let r = Rng.create ~seed:29 in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    let v = Rng.pick r a in
    if v < 1 || v > 3 then Alcotest.fail "pick out of range"
  done;
  checkb "empty raises" true
    (try
       ignore (Rng.pick r [||]);
       false
     with Invalid_argument _ -> true)

let exponential_positive =
  QCheck.Test.make ~name:"exponential always positive" ~count:500
    QCheck.(pair small_int (float_range 0.01 100.))
    (fun (seed, rate) ->
      let r = Rng.create ~seed in
      Rng.exponential r ~rate >= 0.)

(* Random schedules (with cancellations) execute in exactly the order a
   reference sort predicts. *)
let sim_order_matches_reference =
  QCheck.Test.make ~name:"sim executes random schedules in sorted order"
    ~count:200
    QCheck.(
      list_of_size (QCheck.Gen.int_bound 30)
        (pair (float_range 0. 100.) bool))
    (fun jobs ->
      let sim = Sim.create () in
      let fired = ref [] in
      let handles =
        List.mapi
          (fun i (t, _) ->
            Sim.at sim t (fun () -> fired := (t, i) :: !fired))
          jobs
      in
      List.iteri
        (fun i (_, cancel) -> if cancel then Sim.cancel (List.nth handles i))
        jobs;
      Sim.run sim;
      let expected =
        jobs
        |> List.mapi (fun i (t, cancel) -> (t, i, cancel))
        |> List.filter (fun (_, _, cancel) -> not cancel)
        |> List.map (fun (t, i, _) -> (t, i))
        |> List.stable_sort (fun (t1, i1) (t2, i2) ->
               match Float.compare t1 t2 with 0 -> Int.compare i1 i2 | c -> c)
      in
      List.rev !fired = expected)

let test_eq_head_take () =
  let q = Event_queue.create () in
  let h = Event_queue.schedule q ~time:1.0 ignore in
  ignore (Event_queue.schedule q ~time:2.0 ignore);
  Event_queue.cancel h;
  checkf "head skips cancelled" 2.0 (Event_queue.time (Event_queue.head q));
  checkf "take returns head" 2.0 (Event_queue.time (Event_queue.take q));
  checkb "empty after take" true (Event_queue.is_empty q);
  checkb "take on empty raises" true
    (match Event_queue.take q with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Words the minor heap gained while [f] ran (native code only: bytecode
   boxes floats and closures the native compiler does not). *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Running scheduled events allocates nothing per event: 10^4 no-op events
   run in fewer words than one event would have cost before (36). The
   queue holds 2 x 10^4 so that the heap does not shrink mid-run. *)
let test_sim_run_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let sim = Sim.create () in
    for i = 1 to 20_000 do
      ignore (Sim.at sim (float_of_int (i * 7919 mod 20_000)) ignore)
    done;
    let words = minor_words (fun () -> Sim.run ~max_events:10_000 sim) in
    checki "events run" 10_000 (Sim.events_processed sim);
    checkb (Printf.sprintf "%.0f words for 10^4 events" words) true (words < 32.)
  end

let () =
  Alcotest.run "aitf_engine"
    [
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "peek stable" `Quick test_heap_peek_stable;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "to_list" `Quick test_heap_to_list;
          QCheck_alcotest.to_alcotest heap_qcheck;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "order" `Quick test_eq_order;
          Alcotest.test_case "fifo ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_eq_cancel;
          Alcotest.test_case "cancel idempotent" `Quick
            test_eq_cancel_idempotent;
          Alcotest.test_case "next_time" `Quick test_eq_next_time;
          Alcotest.test_case "rejects nan" `Quick test_eq_rejects_nonfinite;
          Alcotest.test_case "head and take" `Quick test_eq_head_take;
          Alcotest.test_case "fired event not retained" `Quick
            test_eq_no_retention;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20 |])
            eq_model_agrees;
        ] );
      ( "sim",
        [
          Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
          Alcotest.test_case "after" `Quick test_sim_after;
          Alcotest.test_case "negative delay" `Quick
            test_sim_negative_delay_clamped;
          Alcotest.test_case "past rejected" `Quick test_sim_past_rejected;
          Alcotest.test_case "until" `Quick test_sim_until;
          Alcotest.test_case "stop" `Quick test_sim_stop;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "events processed" `Quick
            test_sim_events_processed;
          Alcotest.test_case "chained scheduling" `Quick
            test_sim_scheduling_inside_event;
          Alcotest.test_case "max events" `Quick test_sim_max_events;
          Alcotest.test_case "run allocates nothing per event" `Quick
            test_sim_run_allocation;
        ] );
      ( "timer",
        [
          Alcotest.test_case "one shot" `Quick test_timer_one_shot;
          Alcotest.test_case "periodic" `Quick test_timer_periodic;
          Alcotest.test_case "periodic start" `Quick test_timer_periodic_start;
          Alcotest.test_case "cancel" `Quick test_timer_cancel_before_fire;
          Alcotest.test_case "reschedule" `Quick test_timer_reschedule;
          Alcotest.test_case "invalid period" `Quick
            test_timer_periodic_invalid;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick
            test_rng_exponential_mean;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick
            test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli frequency" `Quick
            test_rng_bernoulli_frequency;
          Alcotest.test_case "pareto minimum" `Quick test_rng_pareto_minimum;
          Alcotest.test_case "zipf" `Quick test_rng_zipf_bounds_and_skew;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          QCheck_alcotest.to_alcotest exponential_positive;
          QCheck_alcotest.to_alcotest sim_order_matches_reference;
        ] );
    ]
