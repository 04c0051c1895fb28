module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Ledger = Aitf_obs.Ledger

type discipline =
  | Drop_tail
  | Red of { min_th : int; max_th : int; max_p : float }

(* The transmitter's clock, in a record of floats only so that OCaml
   stores the fields unboxed and a send updates them without allocating. *)
type clock = {
  mutable busy_until : float;
      (* end of the last accepted packet's serialisation; [neg_infinity]
         before the first. The transmitter is busy while it is [>= now]. *)
  mutable avg_queue : float;  (* EWMA of queued bytes, for RED *)
  mutable idle_since : float;
      (* RED only: the serialisation end after which the transmitter went
         idle, or [nan] while an accepted packet's end is still to be
         replayed into [avg_queue] *)
}

type t = {
  sim : Sim.t;
  name : string;
  tx_node : string;  (* transmitting endpoint, parsed from "A->B" names *)
  bandwidth : float;
  delay : float;
  queue_capacity : int;
  mutable deliver : (Packet.t -> unit) option;
  clock : clock;
  (* The backlog: accepted packets that have not started transmission, as
     a FIFO ring of (start time, size). [send] fixes each packet's start
     when it accepts it; entries are reclaimed once their start is past. *)
  mutable starts : float array;
  mutable sizes : int array;
  mutable head : int;
  mutable count : int;
  mutable queued_bytes : int;
  (* In flight on a same-shard link: a FIFO ring of accepted packets with
     their delivery keys (time and reserved tie-break), in increasing key
     order. Only the head has an event queued, [on_head]; it schedules the
     next head as it fires. A vacated slot holds [vacant]. *)
  mutable flight_times : float array;
  mutable flight_tickets : Sim.ticket array;
  mutable flight_pkts : Packet.t array;
  mutable flight_head : int;
  mutable flight_count : int;
  mutable on_head : unit -> unit;  (* [deliver_head] of this link *)
  mutable is_up : bool;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable dropped_packets : int;
  mutable dropped_bytes : int;
  discipline : discipline;
  rng : Rng.t;
  mutable early_drops : int;
  (* Fluid coupling (hybrid engine): the rate plane publishes how much
     aggregate traffic is offered to / admitted by this link, and discrete
     packets crossing it then compete with that load — dropped with the
     fluid loss fraction and, under saturation, delayed by a full queue.
     Both stay 0.0 in packet-only runs, leaving behaviour untouched. *)
  mutable fluid_offered : float;  (* bits/s *)
  mutable fluid_admitted : float;  (* bits/s *)
  (* Cross-shard delivery seam (parallel engine): when set, delivery is
     not scheduled on [sim] — the far end lives on another scheduler — but
     posted through this callback as a timestamped message. *)
  mutable remote : (time:float -> (unit -> unit) -> unit) option;
}

let red_weight = 0.02
let is_red t = match t.discipline with Red _ -> true | Drop_tail -> false

(* One step of RED's average towards the backlog [bytes]. *)
let red_ewma t bytes =
  let c = t.clock in
  c.avg_queue <-
    ((1. -. red_weight) *. c.avg_queue) +. (red_weight *. float_of_int bytes)

(* Retire the backlog entries whose transmission started before [now]. An
   entry starting exactly at [now] stays queued: a send at that instant
   finds the transmitter still busy with the packet ahead of it. On a RED
   link this also replays the average, in order, at every serialisation
   end before [now], with the backlog as it was at that instant; after the
   last end, with nothing left waiting, the link is idle from that end. *)
let reclaim t now =
  let red = is_red t in
  while t.count > 0 && Array.unsafe_get t.starts t.head < now do
    let start = Array.unsafe_get t.starts t.head
    and size = Array.unsafe_get t.sizes t.head in
    if red then red_ewma t t.queued_bytes;
    t.head <- (t.head + 1) land (Array.length t.starts - 1);
    t.count <- t.count - 1;
    t.queued_bytes <- t.queued_bytes - size;
    if Aitf_obs.Flight.enabled t.sim then
      Aitf_obs.Flight.note t.sim ~time:start ~node:t.tx_node ~link:t.name
        ~kind:Aitf_obs.Flight.Dequeue ~size ~queue_depth:t.queued_bytes
  done;
  let c = t.clock in
  if red && t.count = 0 && c.busy_until < now && Float.is_nan c.idle_since
  then begin
    red_ewma t 0;
    c.idle_since <- c.busy_until
  end

let push_backlog t start size =
  let cap = Array.length t.starts in
  if t.count = cap then begin
    (* Grow to the next power of two, unrolling the ring from [head]. *)
    let cap' = if cap = 0 then 8 else 2 * cap in
    let starts = Array.make cap' 0. and sizes = Array.make cap' 0 in
    for i = 0 to t.count - 1 do
      let j = (t.head + i) land (cap - 1) in
      starts.(i) <- t.starts.(j);
      sizes.(i) <- t.sizes.(j)
    done;
    t.starts <- starts;
    t.sizes <- sizes;
    t.head <- 0
  end;
  let i = (t.head + t.count) land (Array.length t.starts - 1) in
  Array.unsafe_set t.starts i start;
  Array.unsafe_set t.sizes i size;
  t.count <- t.count + 1;
  t.queued_bytes <- t.queued_bytes + size

let queued_bytes t =
  reclaim t (Sim.now t.sim);
  t.queued_bytes

(* Fills the ring's vacated slots: never delivered, and built without
   [Packet.make], so it takes no packet id. *)
let vacant : Packet.t =
  {
    id = -1;
    src = 0l;
    true_src = 0l;
    dst = 0l;
    proto = 0;
    sport = 0;
    dport = 0;
    size = 0;
    ttl = 0;
    route_record = [];
    ppm_mark = None;
    last_hop = None;
    payload = Packet.Data { flow_id = -1; attack = false };
  }

let grow_flight t ticket =
  let cap = Array.length t.flight_pkts in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let times = Array.make cap' 0. and pkts = Array.make cap' vacant in
  let tickets = Array.make cap' ticket in
  for i = 0 to t.flight_count - 1 do
    let j = (t.flight_head + i) land (cap - 1) in
    times.(i) <- t.flight_times.(j);
    tickets.(i) <- t.flight_tickets.(j);
    pkts.(i) <- t.flight_pkts.(j)
  done;
  t.flight_times <- times;
  t.flight_tickets <- tickets;
  t.flight_pkts <- pkts;
  t.flight_head <- 0

(* Inlined, so that [time] is stored without being boxed. *)
let[@inline always] push_flight t time ticket pkt =
  if t.flight_count = Array.length t.flight_pkts then grow_flight t ticket;
  let i =
    (t.flight_head + t.flight_count) land (Array.length t.flight_pkts - 1)
  in
  Array.unsafe_set t.flight_times i time;
  Array.unsafe_set t.flight_tickets i ticket;
  Array.unsafe_set t.flight_pkts i pkt;
  t.flight_count <- t.flight_count + 1

let drop t fate (pkt : Packet.t) =
  t.dropped_packets <- t.dropped_packets + 1;
  t.dropped_bytes <- t.dropped_bytes + pkt.size;
  Ledger.post (Ledger.of_sim t.sim) (Packet.cls pkt) fate pkt.size;
  if Aitf_obs.Flight.enabled t.sim then
    Aitf_obs.Flight.note t.sim ~time:(Sim.now t.sim) ~node:t.tx_node
      ~link:t.name
      ~kind:(Aitf_obs.Flight.Drop fate)
      ~size:pkt.size ~queue_depth:t.queued_bytes

(* Hoisted so the hot path does not allocate a [Some] per event. *)
let delivery_label = Some "link-delivery"

(* Whether a delivered packet counts as transmitted or dropped is decided
   once, at delivery time — never both. A transmitted packet stays in
   flight in the ledger until the receiving node takes it. *)
let arrive t (pkt : Packet.t) =
  match t.deliver with
  | Some f when t.is_up ->
    t.tx_packets <- t.tx_packets + 1;
    t.tx_bytes <- t.tx_bytes + pkt.size;
    f pkt
  | Some _ | None ->
    Ledger.arrive (Ledger.of_sim t.sim) (Packet.cls pkt) pkt.size;
    drop t Ledger.Link_down pkt

(* The head packet's delivery: pop it, schedule the next head under its
   own key, then deliver. *)
let deliver_head t =
  let i = t.flight_head in
  let pkt = Array.unsafe_get t.flight_pkts i in
  Array.unsafe_set t.flight_pkts i vacant;
  t.flight_head <- (i + 1) land (Array.length t.flight_pkts - 1);
  t.flight_count <- t.flight_count - 1;
  if t.flight_count > 0 then begin
    let j = t.flight_head in
    ignore
      (Sim.at_ticket ?label:delivery_label t.sim
         (Array.unsafe_get t.flight_tickets j)
         (Array.unsafe_get t.flight_times j)
         t.on_head)
  end;
  arrive t pkt

let create ?(discipline = Drop_tail) sim ~name ~bandwidth ~delay
    ~queue_capacity =
  if bandwidth <= 0. then invalid_arg "Link.create: bandwidth must be positive";
  if delay < 0. then invalid_arg "Link.create: negative delay";
  if queue_capacity < 0 then invalid_arg "Link.create: negative queue capacity";
  let tx_node =
    match String.index_opt name '-' with
    | Some i when i + 1 < String.length name && name.[i + 1] = '>' ->
      String.sub name 0 i
    | _ -> name
  in
  let t =
    {
      sim;
      name;
      tx_node;
      bandwidth;
      delay;
      queue_capacity;
      deliver = None;
      clock = { busy_until = neg_infinity; avg_queue = 0.; idle_since = 0. };
      starts = [||];
      sizes = [||];
      head = 0;
      count = 0;
      queued_bytes = 0;
      flight_times = [||];
      flight_tickets = [||];
      flight_pkts = [||];
      flight_head = 0;
      flight_count = 0;
      on_head = ignore;
      is_up = true;
      tx_packets = 0;
      tx_bytes = 0;
      dropped_packets = 0;
      dropped_bytes = 0;
      discipline;
      rng = Rng.create ~seed:(Hashtbl.hash name);
      early_drops = 0;
      fluid_offered = 0.;
      fluid_admitted = 0.;
      remote = None;
    }
  in
  t.on_head <- (fun () -> deliver_head t);
  Aitf_obs.Metrics.if_attached sim (fun reg ->
      let open Aitf_obs.Metrics in
      let p metric = Printf.sprintf "link.%s.%s" name metric in
      register_counter reg (p "tx_packets") ~unit_:"packets"
        ~help:"Packets delivered to the far end of the link" (fun () ->
          float_of_int t.tx_packets);
      register_counter reg (p "tx_bytes") ~unit_:"bytes"
        ~help:"Bytes delivered to the far end of the link" (fun () ->
          float_of_int t.tx_bytes);
      register_counter reg (p "dropped_packets") ~unit_:"packets"
        ~help:"Packets dropped (queue overflow, RED early drop, link down)"
        (fun () -> float_of_int t.dropped_packets);
      register_gauge reg (p "queued_bytes") ~unit_:"bytes"
        ~help:"Current queue occupancy" (fun () ->
          float_of_int (queued_bytes t));
      register_gauge reg (p "utilization") ~unit_:"ratio"
        ~help:"Cumulative bits sent over bandwidth x elapsed virtual time"
        (fun () ->
          let now = Sim.now t.sim in
          if now <= 0. then 0.
          else float_of_int (t.tx_bytes * 8) /. (t.bandwidth *. now));
      register_gauge reg (p "fluid_offered_bps") ~unit_:"bits/s"
        ~help:"Fluid-aggregate load currently offered to the link" (fun () ->
          t.fluid_offered);
      register_gauge reg (p "fluid_admitted_bps") ~unit_:"bits/s"
        ~help:"Fluid-aggregate load the link currently admits" (fun () ->
          t.fluid_admitted));
  t

let set_deliver t f = t.deliver <- Some f
let set_remote t post = t.remote <- Some post

let wrap_deliver t f =
  match t.deliver with
  | None -> invalid_arg "Link.wrap_deliver: no deliver callback installed"
  | Some d -> t.deliver <- Some (f d)

(* RED's update on a send, after [reclaim] has replayed every earlier
   serialisation end. An idle spell first decays the average as if [m]
   average-sized packets had been serviced over it (the standard RED idle
   correction), so a stale high average cannot early-drop the first
   packets after the link has drained. *)
let red_on_send t now =
  let c = t.clock in
  if not (Float.is_nan c.idle_since) then begin
    let idle = now -. c.idle_since in
    if idle > 0. then begin
      let mean_pkt =
        if t.tx_packets > 0 then
          float_of_int t.tx_bytes /. float_of_int t.tx_packets
        else 500.
      in
      let s = mean_pkt *. 8. /. t.bandwidth in
      let m = idle /. Float.max s 1e-9 in
      c.avg_queue <- c.avg_queue *. ((1. -. red_weight) ** m)
    end
  end;
  red_ewma t t.queued_bytes

(* RED decision on enqueue: drop probabilistically between the thresholds.
   The average itself is maintained by [reclaim] and [red_on_send]. *)
let red_rejects t =
  match t.discipline with
  | Drop_tail -> false
  | Red { min_th; max_th; max_p } ->
    let avg = t.clock.avg_queue in
    if avg <= float_of_int min_th then false
    else if avg >= float_of_int max_th then true
    else
      let ramp =
        (avg -. float_of_int min_th) /. float_of_int (max_th - min_th)
      in
      Rng.bernoulli t.rng ~p:(max_p *. ramp)

let fluid_loss t =
  if t.fluid_offered <= 0. then 0.
  else Float.max 0. (1. -. (t.fluid_admitted /. t.fluid_offered))

let set_fluid t ~offered ~admitted =
  t.fluid_offered <- offered;
  t.fluid_admitted <- admitted

(* Accept [pkt] at [now]: fix its transmission start (now on an idle link,
   else the end of the last accepted packet), its serialisation end and
   its delivery time, and queue the delivery, the packet's only event:
   in the ring, under a ticket reserved now, or on its own. *)
let accept t (pkt : Packet.t) now busy =
  let c = t.clock in
  let start = if busy then c.busy_until else now in
  let fin = start +. (float_of_int (pkt.size * 8) /. t.bandwidth) in
  c.busy_until <- fin;
  if is_red t then c.idle_since <- nan;
  if busy then push_backlog t start pkt.size;
  if Aitf_obs.Flight.enabled t.sim then begin
    let note kind queue_depth =
      Aitf_obs.Flight.note t.sim ~time:now ~node:t.tx_node ~link:t.name
        ~kind ~size:pkt.size ~queue_depth
    in
    (* A queued packet's dequeue is noted when [reclaim] retires it. *)
    if busy then note Aitf_obs.Flight.Enqueue t.queued_bytes
    else begin
      note Aitf_obs.Flight.Enqueue (t.queued_bytes + pkt.size);
      note Aitf_obs.Flight.Dequeue t.queued_bytes
    end
  end;
  (* Under fluid saturation the queue is full in steady state, so a packet
     that does get through waits a full queue's worth of serialisation. *)
  let fluid_wait =
    if t.fluid_offered > t.bandwidth then
      float_of_int (t.queue_capacity * 8) /. t.bandwidth
    else 0.
  in
  match t.remote with
  | None ->
    Ledger.depart (Ledger.of_sim t.sim) (Packet.cls pkt) pkt.size;
    let time = fin +. (t.delay +. fluid_wait) in
    let n = t.flight_count in
    if
      n > 0
      && time
         < Array.unsafe_get t.flight_times
             ((t.flight_head + n - 1) land (Array.length t.flight_pkts - 1))
    then
      (* Due before the ring's tail (the fluid wait dropped since that
         send): a ring must stay in key order, so this one goes alone. *)
      ignore
        (Sim.at ?label:delivery_label t.sim time (fun () -> arrive t pkt))
    else begin
      let ticket = Sim.reserve t.sim in
      push_flight t time ticket pkt;
      if n = 0 then
        ignore (Sim.at_ticket ?label:delivery_label t.sim ticket time t.on_head)
    end
  | Some post -> (
    (* Cross-shard link: decide transmitted-vs-dropped now, because the
       link's own state must not be touched from the far end's scheduler
       later. Only the deliver callback crosses the shard boundary. *)
    match t.deliver with
    | Some f when t.is_up ->
      t.tx_packets <- t.tx_packets + 1;
      t.tx_bytes <- t.tx_bytes + pkt.size;
      Ledger.depart (Ledger.of_sim t.sim) (Packet.cls pkt) pkt.size;
      post ~time:(fin +. t.delay +. fluid_wait) (fun () -> f pkt)
    | Some _ | None -> drop t Ledger.Link_down pkt)

let send t pkt =
  let now = Sim.now t.sim in
  reclaim t now;
  if not t.is_up then drop t Ledger.Link_down pkt
  else if
    (* Discrete packets compete with the fluid load: a saturated link drops
       them with the same loss fraction the aggregates suffer. [bernoulli]
       consumes no randomness when p <= 0, so packet-only runs never touch
       the RNG here and stay bit-identical. *)
    Rng.bernoulli t.rng ~p:(fluid_loss t)
  then drop t Ledger.Fluid_loss pkt
  else begin
    if is_red t then red_on_send t now;
    let busy = t.clock.busy_until >= now in
    if busy && t.queued_bytes + pkt.Packet.size > t.queue_capacity then
      drop t Ledger.Queue_overflow pkt
    else if busy && red_rejects t then begin
      t.early_drops <- t.early_drops + 1;
      drop t Ledger.Red_early_drop pkt
    end
    else accept t pkt now busy
  end

let name t = t.name
let bandwidth t = t.bandwidth
let delay t = t.delay
let up t = t.is_up
let set_up t v = t.is_up <- v
let discipline t = t.discipline
let early_drops t = t.early_drops
let tx_packets t = t.tx_packets
let tx_bytes t = t.tx_bytes
let dropped_packets t = t.dropped_packets
let dropped_bytes t = t.dropped_bytes

let utilization t ~now =
  if now <= 0. then 0.
  else float_of_int (t.tx_bytes * 8) /. (t.bandwidth *. now)
