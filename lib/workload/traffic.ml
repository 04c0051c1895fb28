module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
module Ledger = Aitf_obs.Ledger
open Aitf_net
open Aitf_filter

type arrival = Constant of float | Exponential of (Rng.t * float)
(* Exponential carries the per-packet rate (packets/s). *)

type t = {
  net : Network.t;
  node : Node.t;
  dst : Addr.t;
  flow_id : int;
  pkt_size : int;
  attack : bool;
  gate : Packet.t -> bool;
  spoof : unit -> Addr.t option;
  arrival : arrival;
  stop : float;
  mutable halted : bool;
  mutable pending : Sim.handle option;
  mutable sent_packets : int;
}

let next_gap t =
  match t.arrival with
  | Constant gap -> gap
  | Exponential (rng, rate) -> Rng.exponential rng ~rate

let refuse net node (pkt : Packet.t) =
  let ledger = Ledger.of_sim (Network.sim_for net node) in
  Ledger.offer ledger (Packet.cls pkt) pkt.size;
  Ledger.post ledger (Packet.cls pkt) Ledger.Gated pkt.size

let emit t =
  let pkt =
    Packet.make ?spoofed_src:(t.spoof ()) ~src:t.node.Node.addr ~dst:t.dst
      ~size:t.pkt_size
      (Packet.Data { flow_id = t.flow_id; attack = t.attack })
  in
  if t.gate pkt then begin
    t.sent_packets <- t.sent_packets + 1;
    Network.originate t.net t.node pkt
  end
  else refuse t.net t.node pkt

(* Hoisted: one [Some] shared by every scheduled packet. *)
let traffic_label = Some "traffic"

let rec schedule t delay =
  let sim = Network.sim t.net in
  t.pending <-
    Some
      (Sim.after ?label:traffic_label sim delay (fun () ->
           t.pending <- None;
           if (not t.halted) && Sim.now sim < t.stop then begin
             emit t;
             schedule t (next_gap t)
           end))

let launch ?(gate = fun _ -> true) ?(spoof = fun () -> None) ~start
    ?(stop = infinity) ?(pkt_size = 1000) ?(attack = false) ~flow_id ~arrival
    ~dst net node =
  let t =
    {
      net;
      node;
      dst;
      flow_id;
      pkt_size;
      attack;
      gate;
      spoof;
      arrival;
      stop;
      halted = false;
      pending = None;
      sent_packets = 0;
    }
  in
  let now = Sim.now (Network.sim net) in
  schedule t (Float.max 0. (start -. now));
  t

let cbr ?gate ?spoof ?(start = 0.) ?stop ?pkt_size ?attack ~flow_id ~rate ~dst
    net node =
  if rate <= 0. then invalid_arg "Traffic.cbr: rate must be positive";
  let size = Option.value ~default:1000 pkt_size in
  let gap = float_of_int (size * 8) /. rate in
  launch ?gate ?spoof ~start ?stop ?pkt_size ?attack ~flow_id
    ~arrival:(Constant gap) ~dst net node

let poisson ?gate ?spoof ?(start = 0.) ?stop ?pkt_size ?attack ~rng ~flow_id
    ~rate ~dst net node =
  if rate <= 0. then invalid_arg "Traffic.poisson: rate must be positive";
  let size = Option.value ~default:1000 pkt_size in
  let pkt_rate = rate /. float_of_int (size * 8) in
  launch ?gate ?spoof ~start ?stop ?pkt_size ?attack ~flow_id
    ~arrival:(Exponential (rng, pkt_rate)) ~dst net node

let halt t =
  t.halted <- true;
  (* Also cancel the scheduled emission so halted sources don't leave a dead
     closure per source in the event queue — at fleet scale that is millions
     of events the heap would otherwise drag to their fire times. *)
  match t.pending with
  | Some h ->
    Sim.cancel h;
    t.pending <- None
  | None -> ()
let flow_id t = t.flow_id
let sent_packets t = t.sent_packets

let label t ~src = Flow_label.host_pair src t.dst
