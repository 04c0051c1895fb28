open Aitf_net

type t = {
  node : Node.t;
  cone : unit Lpm.t;
  check_egress : bool;
  check_ingress : bool;
}

let in_cone t a = Option.is_some (Lpm.lookup t.cone a)

let hook t (_node : Node.t) (pkt : Packet.t) =
  let from_inside =
    match pkt.last_hop with
    | Some hop -> in_cone t hop
    | None -> true (* locally originated counts as inside *)
  in
  let src_inside = in_cone t pkt.src in
  if t.check_egress && from_inside && not src_inside then
    Node.Drop Aitf_obs.Ledger.Egress_spoof
  else if t.check_ingress && (not from_inside) && src_inside then
    Node.Drop Aitf_obs.Ledger.Ingress_spoof
  else Node.Continue

let install ?(egress = true) ?(ingress = true) _net node ~cone =
  let cone_lpm = Lpm.create () in
  List.iter (fun p -> Lpm.insert cone_lpm p ()) cone;
  let t =
    { node; cone = cone_lpm; check_egress = egress; check_ingress = ingress }
  in
  Node.add_hook node (hook t);
  t

(* Only this hook returns these fates, and the node counts every one. *)
let egress_drops t = Node.drop_count t.node Aitf_obs.Ledger.Egress_spoof
let ingress_drops t = Node.drop_count t.node Aitf_obs.Ledger.Ingress_spoof
let spoofed_exits_prevented = egress_drops
