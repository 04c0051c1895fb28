(* The queue is an implicit 4-ary min-heap over (time, seq) kept in two
   parallel arrays: [keys] holds the timestamps unboxed and [tags] packs
   each event's insertion number (high bits) with its slot in the [ents]
   slab (low bits). Seqs are unique, so for equal times comparing two tags
   compares their seqs, and ordering reads only the two key arrays inline
   (no comparison closure, no pointer chasing). Sifting moves a hole down
   or up, one float and one int write per level: no boxed value moves and
   no write barrier runs. An event is written to its slab slot once, when
   scheduled, and the slot is cleared when it is taken. A 4-ary heap is
   half as deep as a binary one; its extra comparisons per level hit
   adjacent key slots. (time, seq) is a strict total order, so the pop
   order does not depend on the heap's shape. *)

type state = Pending | Cancelled | Fired

type entry = {
  time : float;
  action : unit -> unit;
  label : string option;
  mutable state : state;
  owner : t;
}

and t = {
  mutable keys : Float.Array.t;
  mutable tags : int array;  (* seq lsl slot_bits lor slot *)
  mutable ents : entry array; (* the slab; free slots hold [dummy] *)
  mutable free : int array;
      (* the free slab slots, a stack whose top is [free.(cap - size - 1)]
         ([cap] the slab's length): every slot not in the heap is free *)
  mutable size : int;
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
type ticket = int

(* 2^26 slots bound the live queue far above any run's (an entry alone is
   six words); the remaining bits leave 2^36 sequence numbers. *)
let slot_bits = 26
let slot_mask = (1 lsl slot_bits) - 1
let max_seq = max_int lsr slot_bits

let create () =
  {
    keys = Float.Array.create 0;
    tags = [||];
    ents = [||];
    free = [||];
    size = 0;
    next_seq = 0;
    cancelled_pending = 0;
    total_cancelled = 0;
    max_length = 0;
  }

(* Fills every free slab slot, so the slab never retains a taken event.
   It is never [Pending], so [cancel] never writes to it or to its owner. *)
let dummy =
  { time = 0.; action = ignore; label = None; state = Fired; owner = create () }

let min_capacity = 16

(* Move the [size] live events into arrays of [cap] slots, renumbering
   their slab slots to their heap positions, so that a shrunken slab holds
   every live event; the slots from [size] up are free, lowest on top. *)
let resize q cap =
  if cap > slot_mask + 1 then failwith "Event_queue: too many pending events";
  let n = q.size in
  let keys = Float.Array.make cap 0. in
  let tags = Array.make cap 0 in
  let ents = Array.make cap dummy in
  let free = Array.make cap 0 in
  Float.Array.blit q.keys 0 keys 0 n;
  for i = 0 to n - 1 do
    let tag = Array.unsafe_get q.tags i in
    tags.(i) <- (tag land lnot slot_mask) lor i;
    ents.(i) <- Array.unsafe_get q.ents (tag land slot_mask)
  done;
  for j = 0 to cap - n - 1 do
    free.(j) <- cap - 1 - j
  done;
  q.keys <- keys;
  q.tags <- tags;
  q.ents <- ents;
  q.free <- free

let reserve q =
  let seq = q.next_seq in
  if seq >= max_seq then failwith "Event_queue: sequence numbers exhausted";
  q.next_seq <- seq + 1;
  seq

let check_time time =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.schedule: non-finite time"

(* Inlined into both callers, so that neither is small enough to be
   inlined itself and [time] reaches it as the caller's boxed float. *)
let[@inline always] push ?label q seq ~time action =
  let entry = { time; action; label; state = Pending; owner = q } in
  if q.size = Array.length q.ents then
    resize q (max min_capacity (2 * q.size));
  let keys = q.keys and tags = q.tags in
  let slot = Array.unsafe_get q.free (Array.length q.ents - q.size - 1) in
  Array.unsafe_set q.ents slot entry;
  let tag = (seq lsl slot_bits) lor slot in
  (* Sift the hole up from the new last slot. *)
  let i = ref q.size in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pk = Float.Array.unsafe_get keys p in
    if time < pk || (time = pk && tag < Array.unsafe_get tags p) then begin
      Float.Array.unsafe_set keys !i pk;
      Array.unsafe_set tags !i (Array.unsafe_get tags p);
      i := p
    end
    else moving := false
  done;
  Float.Array.unsafe_set keys !i time;
  Array.unsafe_set tags !i tag;
  q.size <- q.size + 1;
  let live = q.size - q.cancelled_pending in
  if live > q.max_length then q.max_length <- live;
  entry

let schedule_ticket ?label q ticket ~time action =
  check_time time;
  push ?label q ticket ~time action

let schedule ?label q ~time action =
  check_time time;
  push ?label q (reserve q) ~time action

(* Remove the root: its slab slot is cleared and freed, and the last heap
   slot's key is sifted down from the top. Halve the arrays once three
   quarters of them sit unused, so storage stays proportional to the live
   queue. *)
let remove_root q =
  let n = q.size - 1 in
  let keys = q.keys and tags = q.tags in
  let root = Array.unsafe_get tags 0 land slot_mask in
  Array.unsafe_set q.ents root dummy;
  Array.unsafe_set q.free (Array.length q.ents - q.size) root;
  let k = Float.Array.unsafe_get keys n in
  let s = Array.unsafe_get tags n in
  q.size <- n;
  if n > 0 then begin
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let first = (4 * !i) + 1 in
      if first >= n then moving := false
      else begin
        (* The least of the up to four children. *)
        let c = ref first in
        let ck = ref (Float.Array.unsafe_get keys first) in
        let cs = ref (Array.unsafe_get tags first) in
        for j = first + 1 to min (first + 3) (n - 1) do
          let jk = Float.Array.unsafe_get keys j in
          if jk < !ck || (jk = !ck && Array.unsafe_get tags j < !cs) then begin
            c := j;
            ck := jk;
            cs := Array.unsafe_get tags j
          end
        done;
        if !ck < k || (!ck = k && !cs < s) then begin
          Float.Array.unsafe_set keys !i !ck;
          Array.unsafe_set tags !i !cs;
          i := !c
        end
        else moving := false
      end
    done;
    Float.Array.unsafe_set keys !i k;
    Array.unsafe_set tags !i s;
    let cap = Array.length q.ents in
    if cap > min_capacity && n <= cap / 4 then resize q (cap / 2)
  end

(* Only a pending event can be cancelled: a handle cancelled again, or
   after its event was taken (an expiry cancelling itself as it fires),
   changes nothing. *)
let cancel h =
  if h.state = Pending then begin
    h.state <- Cancelled;
    h.owner.cancelled_pending <- h.owner.cancelled_pending + 1;
    h.owner.total_cancelled <- h.owner.total_cancelled + 1
  end

let is_cancelled h = h.state = Cancelled

let root q = Array.unsafe_get q.ents (Array.unsafe_get q.tags 0 land slot_mask)

let rec drop_cancelled q =
  if q.size > 0 && (root q).state = Cancelled then begin
    remove_root q;
    q.cancelled_pending <- q.cancelled_pending - 1;
    drop_cancelled q
  end

let is_empty q =
  drop_cancelled q;
  q.size = 0

let head q =
  if is_empty q then invalid_arg "Event_queue.head: no pending event";
  root q

let take q =
  let e = head q in
  remove_root q;
  e.state <- Fired;
  e

let time e = e.time
let label e = e.label
let fire e = e.action ()

let next_time q = if is_empty q then None else Some (root q).time

let pop q =
  if is_empty q then None
  else
    let e = take q in
    Some (e.time, e.label, e.action)

let length q = q.size - q.cancelled_pending

let total_scheduled q = q.next_seq
let total_cancelled q = q.total_cancelled
let max_length q = q.max_length
