open Aitf_net

type t = {
  node : Node.t;
  cone : unit Lpm.t;
  check_egress : bool;
  check_ingress : bool;
  mutable egress_drops : int;
  mutable ingress_drops : int;
}

let in_cone t a = Option.is_some (Lpm.lookup t.cone a)

let hook t (_node : Node.t) (pkt : Packet.t) =
  let from_inside =
    match pkt.last_hop with
    | Some hop -> in_cone t hop
    | None -> true (* locally originated counts as inside *)
  in
  let src_inside = in_cone t pkt.src in
  if t.check_egress && from_inside && not src_inside then begin
    t.egress_drops <- t.egress_drops + 1;
    Node.Drop Aitf_obs.Ledger.Egress_spoof
  end
  else if t.check_ingress && (not from_inside) && src_inside then begin
    t.ingress_drops <- t.ingress_drops + 1;
    Node.Drop Aitf_obs.Ledger.Ingress_spoof
  end
  else Node.Continue

let install ?(egress = true) ?(ingress = true) _net node ~cone =
  let cone_lpm = Lpm.create () in
  List.iter (fun p -> Lpm.insert cone_lpm p ()) cone;
  let t =
    {
      node;
      cone = cone_lpm;
      check_egress = egress;
      check_ingress = ingress;
      egress_drops = 0;
      ingress_drops = 0;
    }
  in
  Node.add_hook node (hook t);
  t

let egress_drops t = t.egress_drops
let ingress_drops t = t.ingress_drops
let spoofed_exits_prevented = egress_drops
