(* The queue is an implicit 4-ary min-heap over (time, seq) kept in three
   parallel arrays: [keys] holds the timestamps unboxed, [seqs] the
   insertion numbers that break ties, [ents] the events. Comparisons read
   the two key arrays inline (no comparison closure, no pointer chasing),
   and sifting moves a hole down or up, one write per level. A 4-ary heap
   is half as deep as a binary one; its extra comparisons per level hit
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
  mutable seqs : int array;
  mutable ents : entry array; (* slots >= size hold [dummy] *)
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

let create () =
  {
    keys = Float.Array.create 0;
    seqs = [||];
    ents = [||];
    size = 0;
    next_seq = 0;
    cancelled_pending = 0;
    total_cancelled = 0;
    max_length = 0;
  }

(* Fills every vacated slot, so the heap never retains a popped event. It
   is never [Pending], so [cancel] never writes to it or to its owner. *)
let dummy =
  { time = 0.; action = ignore; label = None; state = Fired; owner = create () }

let min_capacity = 16

(* Move the [size] live slots into arrays of [cap] slots. *)
let resize q cap =
  let keys = Float.Array.make cap 0. in
  let seqs = Array.make cap 0 in
  let ents = Array.make cap dummy in
  Float.Array.blit q.keys 0 keys 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.ents 0 ents 0 q.size;
  q.keys <- keys;
  q.seqs <- seqs;
  q.ents <- ents

let schedule ?label q ~time action =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.schedule: non-finite time";
  let entry = { time; action; label; state = Pending; owner = q } in
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  if q.size = Array.length q.ents then
    resize q (max min_capacity (2 * q.size));
  let keys = q.keys and seqs = q.seqs and ents = q.ents in
  (* Sift the hole up from the new last slot. *)
  let i = ref q.size in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pk = Float.Array.unsafe_get keys p in
    if time < pk || (time = pk && seq < Array.unsafe_get seqs p) then begin
      Float.Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set ents !i (Array.unsafe_get ents p);
      i := p
    end
    else moving := false
  done;
  Float.Array.unsafe_set keys !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set ents !i entry;
  q.size <- q.size + 1;
  let live = q.size - q.cancelled_pending in
  if live > q.max_length then q.max_length <- live;
  entry

(* Remove the root: the last slot's event is sifted down from the top and
   its old slot reset to [dummy]. Halve the arrays once three quarters of
   them sit unused, so storage stays proportional to the live queue. *)
let remove_root q =
  let n = q.size - 1 in
  let keys = q.keys and seqs = q.seqs and ents = q.ents in
  let k = Float.Array.unsafe_get keys n in
  let s = Array.unsafe_get seqs n in
  let e = Array.unsafe_get ents n in
  Array.unsafe_set ents n dummy;
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
        let cs = ref (Array.unsafe_get seqs first) in
        for j = first + 1 to min (first + 3) (n - 1) do
          let jk = Float.Array.unsafe_get keys j in
          if jk < !ck || (jk = !ck && Array.unsafe_get seqs j < !cs) then begin
            c := j;
            ck := jk;
            cs := Array.unsafe_get seqs j
          end
        done;
        if !ck < k || (!ck = k && !cs < s) then begin
          Float.Array.unsafe_set keys !i !ck;
          Array.unsafe_set seqs !i !cs;
          Array.unsafe_set ents !i (Array.unsafe_get ents !c);
          i := !c
        end
        else moving := false
      end
    done;
    Float.Array.unsafe_set keys !i k;
    Array.unsafe_set seqs !i s;
    Array.unsafe_set ents !i e;
    let cap = Array.length ents in
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

let rec drop_cancelled q =
  if q.size > 0 && (Array.unsafe_get q.ents 0).state = Cancelled then begin
    remove_root q;
    q.cancelled_pending <- q.cancelled_pending - 1;
    drop_cancelled q
  end

let is_empty q =
  drop_cancelled q;
  q.size = 0

let head q =
  if is_empty q then invalid_arg "Event_queue.head: no pending event";
  Array.unsafe_get q.ents 0

let take q =
  let e = head q in
  remove_root q;
  e.state <- Fired;
  e

let time e = e.time
let label e = e.label
let fire e = e.action ()

let next_time q =
  if is_empty q then None else Some (Array.unsafe_get q.ents 0).time

let pop q =
  if is_empty q then None
  else
    let e = take q in
    Some (e.time, e.label, e.action)

let length q = q.size - q.cancelled_pending

let total_scheduled q = q.next_seq
let total_cancelled q = q.total_cancelled
let max_length q = q.max_length
