module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng

type discipline =
  | Drop_tail
  | Red of { min_th : int; max_th : int; max_p : float }

type t = {
  sim : Sim.t;
  name : string;
  tx_node : string;  (* transmitting endpoint, parsed from "A->B" names *)
  bandwidth : float;
  delay : float;
  queue_capacity : int;
  mutable deliver : (Packet.t -> unit) option;
  queue : Packet.t Queue.t;
  mutable queued_bytes : int;
  mutable busy : bool;
  mutable is_up : bool;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable dropped_packets : int;
  mutable dropped_bytes : int;
  discipline : discipline;
  rng : Rng.t;
  mutable avg_queue : float;  (* EWMA of queued bytes, for RED *)
  mutable idle_since : float option;
      (* set while the transmitter is idle; only RED links track it *)
  mutable early_drops : int;
  (* Fluid coupling (hybrid engine): the rate plane publishes how much
     aggregate traffic is offered to / admitted by this link, and discrete
     packets crossing it then compete with that load — dropped with the
     fluid loss fraction and, under saturation, delayed by a full queue.
     Both stay 0.0 in packet-only runs, leaving behaviour untouched. *)
  mutable fluid_offered : float;  (* bits/s *)
  mutable fluid_admitted : float;  (* bits/s *)
  mutable fluid_drops : int;
  (* Cross-shard delivery seam (parallel engine): when set, delivery is
     not scheduled on [sim] — the far end lives on another scheduler — but
     posted through this callback as a timestamped message. *)
  mutable remote : (time:float -> (unit -> unit) -> unit) option;
}

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
      queue = Queue.create ();
      queued_bytes = 0;
      busy = false;
      is_up = true;
      tx_packets = 0;
      tx_bytes = 0;
      dropped_packets = 0;
      dropped_bytes = 0;
      discipline;
      rng = Rng.create ~seed:(Hashtbl.hash name);
      avg_queue = 0.;
      idle_since = Some 0.;
      early_drops = 0;
      fluid_offered = 0.;
      fluid_admitted = 0.;
      fluid_drops = 0;
      remote = None;
    }
  in
  Aitf_obs.Metrics.if_attached (fun reg ->
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
          float_of_int t.queued_bytes);
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

let drop t reason (pkt : Packet.t) =
  t.dropped_packets <- t.dropped_packets + 1;
  t.dropped_bytes <- t.dropped_bytes + pkt.size;
  if Aitf_obs.Flight.enabled () then
    Aitf_obs.Flight.note ~sim:t.sim ~time:(Sim.now t.sim) ~node:t.tx_node
      ~link:t.name
      ~kind:(Aitf_obs.Flight.Drop reason)
      ~size:pkt.size ~queue_depth:t.queued_bytes ()

let red_weight = 0.02

(* EWMA maintenance for RED, run on every send and on every transmission
   completion. An idle spell first decays the average as if [m] average-sized
   packets had been serviced over it (the standard RED idle correction), so a
   stale high average cannot early-drop the first packets after the link has
   drained. *)
let update_red_avg t =
  match t.discipline with
  | Drop_tail -> ()
  | Red _ ->
    (match t.idle_since with
    | Some since ->
      let idle = Sim.now t.sim -. since in
      if idle > 0. then begin
        let mean_pkt =
          if t.tx_packets > 0 then
            float_of_int t.tx_bytes /. float_of_int t.tx_packets
          else 500.
        in
        let s = mean_pkt *. 8. /. t.bandwidth in
        let m = idle /. Float.max s 1e-9 in
        t.avg_queue <- t.avg_queue *. ((1. -. red_weight) ** m)
      end
    | None -> ());
    t.avg_queue <-
      ((1. -. red_weight) *. t.avg_queue)
      +. (red_weight *. float_of_int t.queued_bytes)

(* Hoisted so the hot path does not allocate a [Some] per event. *)
let tx_label = Some "link-tx"
let delivery_label = Some "link-delivery"

let rec start_transmission t =
  if Queue.is_empty t.queue then begin
    t.busy <- false;
    (* Only RED's idle correction reads [idle_since]; a drop-tail link
       skips the [Some] it would allocate. *)
    match t.discipline with
    | Red _ -> t.idle_since <- Some (Sim.now t.sim)
    | Drop_tail -> ()
  end
  else begin
    let pkt = Queue.take t.queue in
    t.busy <- true;
    t.idle_since <- None;
    t.queued_bytes <- t.queued_bytes - pkt.size;
    if Aitf_obs.Flight.enabled () then
      Aitf_obs.Flight.note ~sim:t.sim ~time:(Sim.now t.sim) ~node:t.tx_node
        ~link:t.name ~kind:Aitf_obs.Flight.Dequeue ~size:pkt.size
        ~queue_depth:t.queued_bytes ();
    let serialization = float_of_int (pkt.size * 8) /. t.bandwidth in
    (* Under fluid saturation the queue is full in steady state, so a packet
       that does get through waits a full queue's worth of serialisation. *)
    let fluid_wait =
      if t.fluid_offered > t.bandwidth then
        float_of_int (t.queue_capacity * 8) /. t.bandwidth
      else 0.
    in
    ignore
      (Sim.after ?label:tx_label t.sim serialization (fun () ->
           (match t.remote with
           | None ->
             (* Whether the serialised packet counts as transmitted or
                dropped is decided once, at delivery time — never both. *)
             ignore
               (Sim.after ?label:delivery_label t.sim (t.delay +. fluid_wait)
                  (fun () ->
                    match t.deliver with
                    | Some f when t.is_up ->
                      t.tx_packets <- t.tx_packets + 1;
                      t.tx_bytes <- t.tx_bytes + pkt.size;
                      f pkt
                    | Some _ | None -> drop t "link-down" pkt))
           | Some post -> (
             (* Cross-shard link: decide transmitted-vs-dropped now, when
                serialisation completes, because the link's own state must
                not be touched from the far end's scheduler later. Only
                the deliver callback crosses the shard boundary. *)
             match t.deliver with
             | Some f when t.is_up ->
               t.tx_packets <- t.tx_packets + 1;
               t.tx_bytes <- t.tx_bytes + pkt.size;
               post
                 ~time:(Sim.now t.sim +. t.delay +. fluid_wait)
                 (fun () -> f pkt)
             | Some _ | None -> drop t "link-down" pkt));
           update_red_avg t;
           start_transmission t))
  end

(* RED decision on enqueue: drop probabilistically between the thresholds.
   The average itself is maintained by [update_red_avg]. *)
let red_rejects t =
  match t.discipline with
  | Drop_tail -> false
  | Red { min_th; max_th; max_p } ->
    if t.avg_queue <= float_of_int min_th then false
    else if t.avg_queue >= float_of_int max_th then true
    else
      let ramp =
        (t.avg_queue -. float_of_int min_th)
        /. float_of_int (max_th - min_th)
      in
      Rng.bernoulli t.rng ~p:(max_p *. ramp)

let fluid_loss t =
  if t.fluid_offered <= 0. then 0.
  else Float.max 0. (1. -. (t.fluid_admitted /. t.fluid_offered))

let set_fluid t ~offered ~admitted =
  t.fluid_offered <- offered;
  t.fluid_admitted <- admitted

let send t pkt =
  if not t.is_up then drop t "link-down" pkt
  else if
    (* Discrete packets compete with the fluid load: a saturated link drops
       them with the same loss fraction the aggregates suffer. [bernoulli]
       consumes no randomness when p <= 0, so packet-only runs never touch
       the RNG here and stay bit-identical. *)
    Rng.bernoulli t.rng ~p:(fluid_loss t)
  then begin
    t.fluid_drops <- t.fluid_drops + 1;
    drop t "fluid-loss" pkt
  end
  else begin
    update_red_avg t;
    if t.busy && t.queued_bytes + pkt.Packet.size > t.queue_capacity then
      drop t "queue-overflow" pkt
    else if t.busy && red_rejects t then begin
      t.early_drops <- t.early_drops + 1;
      drop t "red-early-drop" pkt
    end
    else begin
      Queue.add pkt t.queue;
      t.queued_bytes <- t.queued_bytes + pkt.size;
      if Aitf_obs.Flight.enabled () then
        Aitf_obs.Flight.note ~sim:t.sim ~time:(Sim.now t.sim)
          ~node:t.tx_node ~link:t.name ~kind:Aitf_obs.Flight.Enqueue
          ~size:pkt.size ~queue_depth:t.queued_bytes ();
      if not t.busy then start_transmission t
    end
  end

let fluid_offered t = t.fluid_offered
let fluid_admitted t = t.fluid_admitted
let fluid_drops t = t.fluid_drops
let name t = t.name
let bandwidth t = t.bandwidth
let delay t = t.delay
let up t = t.is_up
let set_up t v = t.is_up <- v
let queued_bytes t = t.queued_bytes
let discipline t = t.discipline
let early_drops t = t.early_drops
let tx_packets t = t.tx_packets
let tx_bytes t = t.tx_bytes
let dropped_packets t = t.dropped_packets
let dropped_bytes t = t.dropped_bytes

let utilization t ~now =
  if now <= 0. then 0.
  else float_of_int (t.tx_bytes * 8) /. (t.bandwidth *. now)
