module Sim = Aitf_engine.Sim
open Aitf_net

type t = {
  net : Network.t;
  node : Node.t;
  dst : Addr.t;
  spoof_base : Addr.t;
  pool : int;
  shift_period : float;
  start : float;
  stop : float;
  rotate_ports : bool;
  rotate_proto : bool;
  pkt_size : int;
  flow_id : int;
  gap : float;
  gate : Packet.t -> bool;
  mutable max_shape : int;
  mutable halted : bool;
  mutable sent_packets : int;
}

let sim t = Network.sim t.net

let shape_index t =
  let elapsed = Float.max 0. (Sim.now (sim t) -. t.start) in
  int_of_float (elapsed /. t.shift_period)

let shape_fields t =
  let i = shape_index t in
  if i > t.max_shape then t.max_shape <- i;
  let src = Addr.add t.spoof_base (i mod t.pool) in
  let sport = if t.rotate_ports then 1024 + (i mod 50_000) else 0 in
  let proto = if t.rotate_proto then 1 + (i mod 250) else 17 in
  (src, sport, proto)

let emit t =
  let src, sport, proto = shape_fields t in
  let pkt =
    Packet.make ~spoofed_src:src ~proto ~sport ~src:t.node.Node.addr ~dst:t.dst
      ~size:t.pkt_size
      (Packet.Data { flow_id = t.flow_id; attack = true })
  in
  if t.gate pkt then begin
    t.sent_packets <- t.sent_packets + 1;
    Network.originate t.net t.node pkt
  end
  else Traffic.refuse t.net t.node pkt

let rec schedule t delay =
  ignore
    (Sim.after (sim t) delay (fun () ->
         if (not t.halted) && Sim.now (sim t) < t.stop then begin
           emit t;
           schedule t t.gap
         end))

let create ?(pkt_size = 1000) ?(rotate_ports = true) ?(rotate_proto = false)
    ?(pool = 1000) ?(start = 0.) ?(stop = infinity) ?(gate = fun _ -> true)
    ~shift_period ~flow_id ~rate ~dst ~spoof_base net node =
  if shift_period <= 0. then
    invalid_arg "Shape_shifter.create: shift_period must be positive";
  if rate <= 0. then invalid_arg "Shape_shifter.create: rate must be positive";
  let t =
    {
      net;
      node;
      dst;
      spoof_base;
      pool;
      shift_period;
      start;
      stop;
      rotate_ports;
      rotate_proto;
      pkt_size;
      flow_id;
      gap = float_of_int (pkt_size * 8) /. rate;
      gate;
      max_shape = -1;
      halted = false;
      sent_packets = 0;
    }
  in
  let now = Sim.now (Network.sim net) in
  schedule t (Float.max 0. (start -. now));
  t

let halt t = t.halted <- true
let sent_packets t = t.sent_packets
let shapes_used t = t.max_shape + 1
