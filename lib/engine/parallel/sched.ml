module Sim = Aitf_engine.Sim

(* A cross-shard message: a closure to execute in the destination shard's
   world at [m_time]. [m_src]/[m_seq] identify the sender and its send
   order, giving barriers a deterministic drain order independent of OS
   scheduling. *)
type msg = { m_time : float; m_src : int; m_seq : int; m_fn : unit -> unit }

type inbox = { im : Mutex.t; mutable msgs : msg list }

(* A thunk deferred by shard-phase code until the barrier (global-state
   mutation that must not race other shards). Replayed in
   [(d_time, d_shard, d_seq)] order. *)
type dthunk = { d_time : float; d_shard : int; d_seq : int; d_fn : unit -> unit }

type sync = {
  m : Mutex.t;
  work : Condition.t;  (* coordinator -> workers: new window published *)
  done_ : Condition.t;  (* workers -> coordinator: window complete *)
  mutable gen : int;
  mutable horizon : float;
  mutable inclusive : bool;
  mutable remaining : int;
  mutable shutdown : bool;
  mutable failure : exn option;
}

type stats = {
  windows : int;
  global_batches : int;
  messages : int;
  deferred : int;
  stall_seconds : float;
}

(* One shard window's telemetry, recorded when the window log is enabled
   ([set_window_log]): the horizon it ran to, the coordinator's barrier
   stall, how many events each shard executed inside it, and how many
   messages/deferred thunks its closing barrier drained. *)
type window_record = {
  w_horizon : float;
  w_stall : float;
  w_events : int array;
  w_messages : int;
  w_deferred : int;
}

type t = {
  n : int;
  sims : Sim.t array;
  global_sim : Sim.t;
  mutable min_lookahead : float;
  mutable channels : int;
  inboxes : inbox array;
  out_seq : int array;  (* per-sender message counter, owner-written *)
  mutable coord_seq : int;  (* sender counter for coordinator-context posts *)
  defer_bufs : dthunk list array;  (* per-shard, owner-written *)
  defer_seq : int array;
  sync : sync;
  mutable running : bool;
  mutable joined : bool;  (* a run joined the shard worlds' context *)
  mutable worker_init : shard:int -> unit;
  (* stats *)
  mutable s_windows : int;
  mutable s_global : int;
  mutable s_messages : int;
  mutable s_deferred : int;
  mutable s_stall : float;
  (* window log (off unless set_window_log) *)
  mutable wlog_max : int;
  mutable wlog : window_record list;  (* newest first *)
  mutable wlog_len : int;
  mutable wlog_dropped : int;
}

(* Which shard (if any) the current domain is executing, set by workers at
   spawn. [post]/[defer] use it to stamp deterministic (shard, seq) order
   and to decide inbox-vs-direct handling, so shard-phase code needs no
   explicit context threading. *)
let ctx_key : (int * Sim.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_default_clock f = Sim.set_ambient Sim.clock f

let create ~shards () =
  if shards < 1 then
    invalid_arg
      (Printf.sprintf "Sched.create: shards must be >= 1 (got %d)" shards);
  let global_sim = Sim.create () in
  let sims =
    if shards = 1 then [| global_sim |]
    else Array.init shards (fun shard -> Sim.fork global_sim ~shard)
  in
  {
    n = shards;
    sims;
    global_sim;
    min_lookahead = infinity;
    channels = 0;
    inboxes =
      Array.init shards (fun _ -> { im = Mutex.create (); msgs = [] });
    out_seq = Array.make shards 0;
    coord_seq = 0;
    defer_bufs = Array.make shards [];
    defer_seq = Array.make shards 0;
    sync =
      {
        m = Mutex.create ();
        work = Condition.create ();
        done_ = Condition.create ();
        gen = 0;
        horizon = 0.;
        inclusive = false;
        remaining = 0;
        shutdown = false;
        failure = None;
      };
    running = false;
    joined = false;
    worker_init = (fun ~shard:_ -> ());
    s_windows = 0;
    s_global = 0;
    s_messages = 0;
    s_deferred = 0;
    s_stall = 0.;
    wlog_max = 0;
    wlog = [];
    wlog_len = 0;
    wlog_dropped = 0;
  }

let shards t = t.n
let shard_sim t i = t.sims.(i)
let shard_sims t = t.sims
let global t = t.global_sim
let lookahead t = t.min_lookahead

let set_worker_init t f =
  if t.running then invalid_arg "Sched.set_worker_init: already running";
  t.worker_init <- f

let set_window_log t ~max =
  if max < 0 then invalid_arg "Sched.set_window_log: max must be >= 0";
  t.wlog_max <- max

let window_log t = List.rev t.wlog
let window_log_dropped t = t.wlog_dropped

let shard_events t =
  Array.map Sim.events_processed t.sims

let register_channel t ~src ~dst ~lookahead =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg
      (Printf.sprintf "Sched.register_channel: shard out of range (%d->%d, %d shards)"
         src dst t.n);
  if src = dst then
    invalid_arg
      (Printf.sprintf "Sched.register_channel: %d->%d is not cross-shard" src
         dst);
  if not (Float.is_finite lookahead) || lookahead <= 0. then
    invalid_arg
      (Printf.sprintf
         "Sched.register_channel: channel %d->%d has lookahead %g; \
          cross-shard links need strictly positive latency (a zero-latency \
          channel forces zero-width windows, i.e. deadlock)"
         src dst lookahead);
  t.channels <- t.channels + 1;
  if lookahead < t.min_lookahead then t.min_lookahead <- lookahead

let post t ~dst ~time fn =
  match Domain.DLS.get ctx_key with
  | Some (src, _) ->
    let seq = t.out_seq.(src) in
    t.out_seq.(src) <- seq + 1;
    let ib = t.inboxes.(dst) in
    Mutex.lock ib.im;
    ib.msgs <- { m_time = time; m_src = src; m_seq = seq; m_fn = fn } :: ib.msgs;
    Mutex.unlock ib.im
  | None ->
    (* Coordinator context: every shard is parked, schedule directly. *)
    t.coord_seq <- t.coord_seq + 1;
    ignore (Sim.at ~label:"xshard-delivery" t.sims.(dst) time fn)

let defer t fn =
  match Domain.DLS.get ctx_key with
  | Some (shard, sim) ->
    let seq = t.defer_seq.(shard) in
    t.defer_seq.(shard) <- seq + 1;
    t.defer_bufs.(shard) <-
      { d_time = Sim.now sim; d_shard = shard; d_seq = seq; d_fn = fn }
      :: t.defer_bufs.(shard)
  | None -> fn ()

(* ------------------------------------------------------------------ *)
(* Barrier bookkeeping                                                 *)

let drain_inboxes t =
  for i = 0 to t.n - 1 do
    let ib = t.inboxes.(i) in
    Mutex.lock ib.im;
    let msgs = ib.msgs in
    ib.msgs <- [];
    Mutex.unlock ib.im;
    match msgs with
    | [] -> ()
    | msgs ->
      let msgs =
        List.sort
          (fun a b ->
            let c = Float.compare a.m_time b.m_time in
            if c <> 0 then c
            else
              let c = compare a.m_src b.m_src in
              if c <> 0 then c else compare a.m_seq b.m_seq)
          msgs
      in
      List.iter
        (fun m ->
          t.s_messages <- t.s_messages + 1;
          ignore (Sim.at ~label:"xshard-delivery" t.sims.(i) m.m_time m.m_fn))
        msgs
  done

let drain_deferred t =
  let any = ref false in
  for i = 0 to t.n - 1 do
    if t.defer_bufs.(i) <> [] then any := true
  done;
  if !any then begin
    let all = ref [] in
    for i = 0 to t.n - 1 do
      all := List.rev_append t.defer_bufs.(i) !all;
      t.defer_bufs.(i) <- []
    done;
    let all =
      List.sort
        (fun a b ->
          let c = Float.compare a.d_time b.d_time in
          if c <> 0 then c
          else
            let c = compare a.d_shard b.d_shard in
            if c <> 0 then c else compare a.d_seq b.d_seq)
        !all
    in
    List.iter
      (fun d ->
        t.s_deferred <- t.s_deferred + 1;
        d.d_fn ())
      all
  end

(* ------------------------------------------------------------------ *)
(* Worker protocol                                                     *)

let worker t i () =
  Domain.DLS.set ctx_key (Some (i, t.sims.(i)));
  let sync = t.sync in
  (* Per-domain setup installed by the scenario (the packet-id stride). A
     failure here must not kill the worker — the barrier protocol needs
     every worker looping — so it is parked in [sync.failure] and
     re-raised on the coordinator at the first window. *)
  (try t.worker_init ~shard:i
   with e ->
     Mutex.lock sync.m;
     if sync.failure = None then sync.failure <- Some e;
     Mutex.unlock sync.m);
  let my_gen = ref 0 in
  let rec loop () =
    Mutex.lock sync.m;
    while sync.gen = !my_gen && not sync.shutdown do
      Condition.wait sync.work sync.m
    done;
    if sync.shutdown then Mutex.unlock sync.m
    else begin
      my_gen := sync.gen;
      let horizon = sync.horizon and inclusive = sync.inclusive in
      Mutex.unlock sync.m;
      (try Sim.run_window ~inclusive t.sims.(i) ~horizon
       with e ->
         Mutex.lock sync.m;
         if sync.failure = None then sync.failure <- Some e;
         Mutex.unlock sync.m);
      Mutex.lock sync.m;
      sync.remaining <- sync.remaining - 1;
      if sync.remaining = 0 then Condition.signal sync.done_;
      Mutex.unlock sync.m;
      loop ()
    end
  in
  loop ()

let run_shard_window t ~horizon ~inclusive =
  let sync = t.sync in
  Mutex.lock sync.m;
  sync.horizon <- horizon;
  sync.inclusive <- inclusive;
  sync.remaining <- t.n;
  sync.gen <- sync.gen + 1;
  Condition.broadcast sync.work;
  let clock = Sim.get t.global_sim Sim.clock in
  let t0 = clock () in
  while sync.remaining > 0 do
    Condition.wait sync.done_ sync.m
  done;
  let stall = clock () -. t0 in
  t.s_stall <- t.s_stall +. stall;
  let failure = sync.failure in
  sync.failure <- None;
  Mutex.unlock sync.m;
  t.s_windows <- t.s_windows + 1;
  match failure with Some e -> raise e | None -> stall

let min_next_shard t =
  let best = ref infinity in
  Array.iter
    (fun sim ->
      match Sim.next_time sim with
      | Some time when time < !best -> best := time
      | _ -> ())
    t.sims;
  !best

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)

let run_parallel ?until t =
  let upto = match until with None -> infinity | Some u -> u in
  let sync = t.sync in
  sync.gen <- 0;
  sync.shutdown <- false;
  sync.failure <- None;
  let workers = Array.init t.n (fun i -> Domain.spawn (worker t i)) in
  let join () =
    Mutex.lock sync.m;
    sync.shutdown <- true;
    Condition.broadcast sync.work;
    Mutex.unlock sync.m;
    Array.iter Domain.join workers
  in
  Fun.protect ~finally:join @@ fun () ->
  let rec loop () =
    let s_min = min_next_shard t in
    let g = match Sim.next_time t.global_sim with None -> infinity | Some x -> x in
    let tmin = Float.min s_min g in
    if tmin = infinity || tmin > upto then ()
    else if g <= s_min then begin
      (* Global batch: shards are parked and have no event below [g], so
         the coordinator may execute global events at [<= g] alone —
         reading or mutating any shard's state (fluid recompute, placement
         epochs, series sampling) without races. *)
      Sim.run_window ~inclusive:true t.global_sim ~horizon:g;
      t.s_global <- t.s_global + 1;
      loop ()
    end
    else begin
      (* Shard window: every shard executes local events strictly below
         the horizon in parallel. Any message sent during the window
         carries time >= t_min + lookahead >= horizon, so it cannot land
         in a receiver's past; capping at [g] keeps shard state frozen at
         or before the next global event. *)
      let h = Float.min (s_min +. t.min_lookahead) g in
      let horizon, inclusive = if upto < h then (upto, true) else (h, false) in
      if t.wlog_max = 0 then begin
        let (_ : float) = run_shard_window t ~horizon ~inclusive in
        drain_inboxes t;
        drain_deferred t
      end
      else begin
        let ev0 = Array.map Sim.events_processed t.sims in
        let msg0 = t.s_messages and def0 = t.s_deferred in
        let stall = run_shard_window t ~horizon ~inclusive in
        drain_inboxes t;
        drain_deferred t;
        if t.wlog_len < t.wlog_max then begin
          let ev =
            Array.mapi (fun i sim -> Sim.events_processed sim - ev0.(i)) t.sims
          in
          t.wlog <-
            {
              w_horizon = horizon;
              w_stall = stall;
              w_events = ev;
              w_messages = t.s_messages - msg0;
              w_deferred = t.s_deferred - def0;
            }
            :: t.wlog;
          t.wlog_len <- t.wlog_len + 1
        end
        else t.wlog_dropped <- t.wlog_dropped + 1
      end;
      loop ()
    end
  in
  loop ();
  match until with
  | None -> ()
  | Some u ->
    Array.iter (fun sim -> Sim.advance_to sim u) t.sims;
    Sim.advance_to t.global_sim u

(* [create] forked the shard worlds' context; a run after a join re-forks
   what the join spent. The join runs however the run ends. *)
let run_sharded ?until t =
  if t.joined then
    Array.iteri (fun shard sim -> Sim.refork t.global_sim sim ~shard) t.sims;
  t.joined <- true;
  let join () = Sim.join t.global_sim (Array.to_list t.sims) in
  match run_parallel ?until t with
  | () -> join ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (try join () with _ -> ());
    Printexc.raise_with_backtrace e bt

let run ?until t =
  if t.running then invalid_arg "Sched.run: already running";
  t.running <- true;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      if t.n = 1 then Sim.run ?until t.global_sim else run_sharded ?until t)

let events_processed t =
  if t.n = 1 then Sim.events_processed t.global_sim
  else
    Array.fold_left (fun acc sim -> acc + Sim.events_processed sim) 0 t.sims
    + Sim.events_processed t.global_sim

let stats t =
  {
    windows = t.s_windows;
    global_batches = t.s_global;
    messages = t.s_messages;
    deferred = t.s_deferred;
    stall_seconds = t.s_stall;
  }

module Metrics = Aitf_obs.Metrics

(* Pull gauges over the live scheduler: snapshotting the registry after
   [run] returns reads the final synchronization counters. Names match
   the historical CLI report keys ([sched.windows], ...). *)
let register_metrics t reg ~prefix =
  let gauge name help read =
    Metrics.register_gauge reg ~help (prefix ^ "." ^ name) read
  in
  gauge "shards" "configured shard count" (fun () -> float_of_int t.n);
  gauge "lookahead" "minimum cross-shard channel latency (s)" (fun () ->
      t.min_lookahead);
  gauge "windows" "parallel shard windows executed" (fun () ->
      float_of_int t.s_windows);
  gauge "global_batches" "global-phase coordinator batches" (fun () ->
      float_of_int t.s_global);
  gauge "messages" "cross-shard messages drained at barriers" (fun () ->
      float_of_int t.s_messages);
  gauge "deferred" "deferred thunks replayed at barriers" (fun () ->
      float_of_int t.s_deferred);
  gauge "stall_seconds" "coordinator barrier-wait wall-clock (s)" (fun () ->
      t.s_stall)
