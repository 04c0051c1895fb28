open Aitf_net
open Aitf_filter

type target = To_victim_gateway | To_attacker_gateway | To_attacker

type request = {
  flow : Flow_label.t;
  target : target;
  duration : float;
  path : Addr.t list;
  hops : int;
  requestor : Addr.t;
  corr : int;
  auth : int64;
}

type receipt = {
  rc_flow : Flow_label.t;
  rc_gateway : Addr.t;
  rc_victim : Addr.t;
  rc_seq : int;
  rc_installed_at : float;
  rc_expires_at : float;
  rc_hits : int;
  rc_auth : int64;
}

type Packet.payload +=
  | Filtering_request of request
  | Verification_query of { flow : Flow_label.t; nonce : int64 }
  | Verification_reply of { flow : Flow_label.t; nonce : int64 }
  | Install_receipt of receipt

let message_size = 64
let protocol_number = 253

let packet ~src ~dst payload =
  Packet.make ~proto:protocol_number ~src ~dst ~size:message_size payload
