open Aitf_net

let hook (node : Node.t) (pkt : Packet.t) =
  Packet.record_route pkt node.Node.addr;
  Node.Continue

let install node = Node.add_hook node hook

let path = Packet.recorded_route

let gateway_for_round path ~round = List.nth_opt path round
