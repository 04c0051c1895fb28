module Sim = Aitf_engine.Sim
module Rng = Aitf_engine.Rng
open Aitf_net

(* The bridge from the rate domain back to the packet domain: materialise
   representative zero-byte packets from an aggregate so the unchanged AITF
   control plane still sees real traffic — gateways append route records and
   match flows against filters and shadow caches, the victim's detector
   fires, handshakes verify. Zero size keeps byte accounting entirely in the
   fluid plane while the probes still compete for (and are dropped by) the
   same saturated links via the fluid coupling in [Link]. *)

type t = {
  fluid : Fluid.t;
  agg : Fluid.agg;
  rng : Rng.t;
  gap : float;  (* seconds between probes *)
  mutable sent : int;
  mutable skipped : int;  (* ticks with no sending source *)
}

let default_max_rate = 200.

(* A probe per packet-time of the aggregate, capped so probe cost never
   scales with population: representative sampling, not replay. *)
let auto_rate agg =
  let pkt_rate =
    Fluid.total_rate agg /. float_of_int (Fluid.pkt_size agg * 8)
  in
  Float.min default_max_rate (Float.max 1. pkt_rate)

let pick_source t =
  let n = Fluid.n_sources t.agg in
  let rec go tries =
    if tries = 0 then None
    else
      let idx = if n = 1 then 0 else Rng.int t.rng n in
      if Fluid.source_sending t.agg idx then Some idx
      else if n = 1 then None
      else go (tries - 1)
  in
  go 16

let probe t =
  match pick_source t with
  | None -> t.skipped <- t.skipped + 1
  | Some idx ->
    let origin = Fluid.origin t.agg in
    let src = Fluid.source_addr t.agg idx in
    let spoofed =
      if Addr.equal src origin.Node.addr then None else Some src
    in
    let pkt =
      Packet.make ?spoofed_src:spoofed ~src:origin.Node.addr
        ~dst:(Fluid.dst t.agg) ~size:0
        (Packet.Data
           { flow_id = Fluid.flow_id t.agg; attack = Fluid.attack t.agg })
    in
    t.sent <- t.sent + 1;
    Network.originate (Fluid.network t.fluid) origin pkt

let attach ~rate ?sim ~rng fluid agg =
  let r = if rate > 0. then rate else auto_rate agg in
  let t = { fluid; agg; rng; gap = 1. /. r; sent = 0; skipped = 0 } in
  (* Sharded runs tick on the origin pool's shard so probe emission is a
     shard-local event; the default is the network-wide sim, as before. *)
  let sim =
    match sim with
    | Some sim -> sim
    | None -> Network.sim (Fluid.network fluid)
  in
  let rec tick () =
    if Fluid.active t.agg then probe t;
    ignore (Sim.after ~label:"fluid-sampler" sim t.gap tick)
  in
  (* Desynchronise aggregates deterministically: the first tick lands at a
     seeded random fraction of the gap. *)
  ignore (Sim.after ~label:"fluid-sampler" sim (Rng.float rng t.gap) tick);
  t

let sent t = t.sent
let skipped t = t.skipped
let probe_gap t = t.gap
