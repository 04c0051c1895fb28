type entry = {
  time : float;
  seq : int;
  action : unit -> unit;
  label : string option;
  mutable cancelled : bool;
  owner : t;
}

and t = {
  heap : entry Heap.t;
  mutable next_seq : int;
  mutable cancelled_pending : int;
      (* cancelled entries still sitting in the heap, so that [length] can
         report live entries without scanning *)
  mutable total_cancelled : int;
      (* monotone count of every [cancel] that took effect *)
  mutable max_length : int;
      (* peak live (non-cancelled) length ever observed *)
}

type handle = entry

let cmp_entry a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    heap = Heap.create ~cmp:cmp_entry;
    next_seq = 0;
    cancelled_pending = 0;
    total_cancelled = 0;
    max_length = 0;
  }

let schedule ?label q ~time action =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.schedule: non-finite time";
  let entry =
    { time; seq = q.next_seq; action; label; cancelled = false; owner = q }
  in
  q.next_seq <- q.next_seq + 1;
  Heap.push q.heap entry;
  let live = Heap.length q.heap - q.cancelled_pending in
  if live > q.max_length then q.max_length <- live;
  entry

let cancel h =
  if not h.cancelled then begin
    h.cancelled <- true;
    h.owner.cancelled_pending <- h.owner.cancelled_pending + 1;
    h.owner.total_cancelled <- h.owner.total_cancelled + 1
  end

let is_cancelled h = h.cancelled

let rec drop_cancelled q =
  if (not (Heap.is_empty q.heap)) && (Heap.top q.heap).cancelled then begin
    ignore (Heap.take q.heap);
    q.cancelled_pending <- q.cancelled_pending - 1;
    drop_cancelled q
  end

let is_empty q =
  drop_cancelled q;
  Heap.is_empty q.heap

let head q =
  drop_cancelled q;
  Heap.top q.heap

let take q =
  drop_cancelled q;
  Heap.take q.heap

let time e = e.time
let label e = e.label
let fire e = e.action ()

let next_time q = if is_empty q then None else Some (Heap.top q.heap).time

let pop q =
  if is_empty q then None
  else
    let e = Heap.take q.heap in
    Some (e.time, e.label, e.action)

let length q = Heap.length q.heap - q.cancelled_pending

let total_scheduled q = q.next_seq
let total_cancelled q = q.total_cancelled
let max_length q = q.max_length
