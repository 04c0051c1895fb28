type handle = Event_queue.handle

(* Sim-local storage: each key mints its own extensible-variant
   constructor, so a slot is stored and read back without a cast. *)
type slot = ..
type slot += Unset

type probe = string option -> float -> int -> unit

type t = {
  queue : Event_queue.t;
  mutable now : float;
  mutable running : bool;
  mutable stop_requested : bool;
  mutable events_processed : int;
  mutable slots : slot array;
  mutable probe : probe option;
      (* [profiler]'s slot, mirrored so the per-event check is one load *)
}

type 'a key = {
  id : int;
  init : unit -> 'a;
  inj : 'a -> slot;
  prj : slot -> 'a;
  fork : (t -> shard:int -> 'a -> 'a) option;
  join : ('a -> 'a list -> unit) option;
}

type any_key = Any : 'a key -> any_key

(* Every key made so far, newest first: a key's id is the number made
   before it. [fork] and [join] walk it for the slots that split. *)
let keys : any_key list Atomic.t = Atomic.make []

module Key = struct
  type 'a t = 'a key

  let create (type a) ?fork ?join (init : unit -> a) : a t =
    let module M = struct
      type slot += Slot of a
    end in
    let inj v = M.Slot v and prj = function M.Slot v -> v | _ -> assert false in
    let rec register () =
      let ks = Atomic.get keys in
      let k = { id = List.length ks; init; inj; prj; fork; join } in
      if Atomic.compare_and_set keys ks (Any k :: ks) then k else register ()
    in
    register ()
end

(* What [attach]-style calls write and [create] copies; never read mid-run. *)
let ambient_slots : slot array ref = ref [||]

(* A shard never inherits a bare probe: it could not be split, and the
   shard would share it across domains. [Aitf_obs.Profile]'s own key
   forks a fresh profiler and installs its probe here. *)
let profiler : probe option Key.t =
  Key.create ~fork:(fun _ ~shard:_ _ -> None) (fun () -> None)

let clock : (unit -> float) Key.t = Key.create (fun () -> Unix.gettimeofday)

let slot slots (k : _ key) =
  if k.id < Array.length slots then Array.unsafe_get slots k.id else Unset

let write slots (k : _ key) v =
  let n = Array.length slots in
  let slots =
    if k.id < n then slots
    else Array.init (k.id + 1) (fun i -> if i < n then slots.(i) else Unset)
  in
  slots.(k.id) <- k.inj v;
  slots

let set sim k v =
  sim.slots <- write sim.slots k v;
  if k.id = profiler.id then sim.probe <- profiler.prj sim.slots.(k.id)

let get sim (k : _ key) =
  match slot sim.slots k with
  | Unset ->
    let v = k.init () in
    set sim k v;
    v
  | s -> k.prj s

let set_ambient k v = ambient_slots := write !ambient_slots k v

let ambient (k : _ key) =
  match slot !ambient_slots k with Unset -> k.init () | s -> k.prj s

let of_slots slots =
  {
    queue = Event_queue.create ();
    now = 0.0;
    running = false;
    stop_requested = false;
    events_processed = 0;
    slots;
    probe =
      (match slot slots profiler with Unset -> None | s -> profiler.prj s);
  }

let create () = of_slots (Array.copy !ambient_slots)

(* Fork into [child] every slot that declares a fork, or only those that
   also join ([~spent]: what a join used up), oldest key first. *)
let fork_slots ~spent parent child ~shard =
  List.iter
    (fun (Any k) ->
      match k.fork with
      | Some f when (not spent) || Option.is_some k.join ->
        set child k (f child ~shard (get parent k))
      | Some _ | None -> ())
    (List.rev (Atomic.get keys))

let fork parent ~shard =
  let child = of_slots (Array.copy parent.slots) in
  fork_slots ~spent:false parent child ~shard;
  child

let refork parent child ~shard = fork_slots ~spent:true parent child ~shard

let join parent children =
  List.iter
    (fun (Any k) ->
      Option.iter
        (fun j -> j (get parent k) (List.map (fun c -> get c k) children))
        k.join)
    (List.rev (Atomic.get keys))

let now sim = sim.now

let check_future sim time =
  if time < sim.now then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is in the past (now %g)" time sim.now)

let at ?label sim time f =
  check_future sim time;
  Event_queue.schedule ?label sim.queue ~time f

type ticket = Event_queue.ticket

let reserve sim = Event_queue.reserve sim.queue

let at_ticket ?label sim ticket time f =
  check_future sim time;
  Event_queue.schedule_ticket ?label sim.queue ticket ~time f

let after ?label sim delay f =
  let delay = if delay < 0. then 0. else delay in
  Event_queue.schedule ?label sim.queue ~time:(sim.now +. delay) f

let cancel = Event_queue.cancel

(* Run one event already taken off the queue. The loops below peek the
   head with [Event_queue.head] after [is_empty] and take it with
   [Event_queue.take], so executing an event allocates nothing. *)
let exec sim e =
  sim.now <- Event_queue.time e;
  sim.events_processed <- sim.events_processed + 1;
  match sim.probe with
  | None -> Event_queue.fire e
  | Some probe ->
    let clock = get sim clock in
    let t0 = clock () in
    Event_queue.fire e;
    probe (Event_queue.label e) (clock () -. t0) (Event_queue.length sim.queue)

let step sim =
  if Event_queue.is_empty sim.queue then false
  else begin
    exec sim (Event_queue.take sim.queue);
    true
  end

(* The two drain loops are top-level functions over plain arguments, so a
   run allocates no closure or ref of its own either. [drain_until] runs
   every event not after [horizon] while [budget] (negative: unbounded)
   lasts and returns what is left of it. *)
let rec drain_until sim horizon budget =
  if sim.stop_requested || budget = 0 || Event_queue.is_empty sim.queue then
    budget
  else if Event_queue.time (Event_queue.head sim.queue) > horizon then budget
  else begin
    exec sim (Event_queue.take sim.queue);
    drain_until sim horizon (if budget > 0 then budget - 1 else budget)
  end

let rec drain_window sim ~inclusive horizon =
  if sim.stop_requested || Event_queue.is_empty sim.queue then ()
  else
    let t = Event_queue.time (Event_queue.head sim.queue) in
    if if inclusive then t <= horizon else t < horizon then begin
      exec sim (Event_queue.take sim.queue);
      drain_window sim ~inclusive horizon
    end

(* Re-entrancy guard around a drain loop: [start] before it, [finish] after
   it however it ends. *)
let start sim what =
  if sim.running then invalid_arg (what ^ ": already running");
  sim.running <- true;
  sim.stop_requested <- false

let finish sim = sim.running <- false

let reraise sim e =
  let bt = Printexc.get_raw_backtrace () in
  finish sim;
  Printexc.raise_with_backtrace e bt

let run ?until ?max_events sim =
  start sim "Sim.run";
  let horizon = match until with None -> infinity | Some t -> t in
  let budget = match max_events with None -> -1 | Some n -> n in
  let left =
    match drain_until sim horizon budget with
    | left ->
      finish sim;
      left
    | exception e -> reraise sim e
  in
  (* Only advance the clock to the horizon when the run actually drained
     that far (not when stopped or event-budget-exhausted mid-way). *)
  match until with
  | Some t when t > sim.now && (not sim.stop_requested) && left <> 0 ->
    sim.now <- t
  | _ -> ()

let next_time sim = Event_queue.next_time sim.queue

let run_window ?(inclusive = false) sim ~horizon =
  start sim "Sim.run_window";
  match drain_window sim ~inclusive horizon with
  | () -> finish sim
  | exception e -> reraise sim e

let advance_to sim time =
  (match Event_queue.next_time sim.queue with
  | Some t when t < time ->
    invalid_arg
      (Printf.sprintf
         "Sim.advance_to: event pending at %g before target %g" t time)
  | _ -> ());
  if time > sim.now then sim.now <- time

let stop sim = sim.stop_requested <- true
let events_processed sim = sim.events_processed
let pending sim = Event_queue.length sim.queue
let peak_pending sim = Event_queue.max_length sim.queue
let total_scheduled sim = Event_queue.total_scheduled sim.queue
let total_cancelled sim = Event_queue.total_cancelled sim.queue
