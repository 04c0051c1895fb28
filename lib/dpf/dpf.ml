open Aitf_net

type mode = Strict | Loose

type t = {
  net : Network.t;
  node : Node.t;
  mode : mode;
  mutable checked : int;
}

(* The reverse-path check: would this router route towards [pkt.src] out of
   the interface the packet arrived on? Locally-delivered-from-direct-hosts
   traffic (last hop is the FIB's next hop to the source) passes. *)
let feasible t (pkt : Packet.t) =
  match Lpm.lookup t.node.Node.fib pkt.src with
  | None -> false (* no route back to the claimed source: bogon *)
  | Some port -> (
    match t.mode with
    | Loose -> true
    | Strict -> (
      match pkt.last_hop with
      | None -> true (* originated here *)
      | Some hop -> (
        match Network.node_by_addr t.net hop with
        | None -> false
        | Some prev -> prev.Node.id = port.Node.peer_id)))

let hook t (_node : Node.t) (pkt : Packet.t) =
  t.checked <- t.checked + 1;
  if feasible t pkt then Node.Continue else Node.Drop Aitf_obs.Ledger.Dpf_spoof

let install ?(mode = Strict) net node =
  let t = { net; node; mode; checked = 0 } in
  Node.add_hook node (hook t);
  t

let deploy ?mode net nodes = List.map (fun n -> install ?mode net n) nodes

let checked t = t.checked
(* Only this hook returns [Dpf_spoof], and the node counts every one. *)
let dropped t = Node.drop_count t.node Aitf_obs.Ledger.Dpf_spoof
