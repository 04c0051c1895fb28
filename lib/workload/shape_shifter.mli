(** A shape-shifting attack source — the adversary of the paper's
    introduction.

    "An attack can switch from one protocol to another, move between source
    networks as well as oscillate between on and off far faster than any
    human can respond." This source rotates its apparent identity — spoofed
    source address, source port, optionally protocol — every [shift_period]
    seconds, so each period presents the defense with a brand-new flow
    label. The underlying sending node and rate never change; only the
    header does. *)

open Aitf_net

type t

val create :
  ?pkt_size:int ->
  ?rotate_ports:bool ->
  ?rotate_proto:bool ->
  ?pool:int ->
  ?start:float ->
  ?stop:float ->
  ?gate:(Packet.t -> bool) ->
  shift_period:float ->
  flow_id:int ->
  rate:float ->
  dst:Addr.t ->
  spoof_base:Addr.t ->
  Network.t ->
  Node.t ->
  t
(** Rotate through [pool] (default 1000) spoofed sources starting at
    [spoof_base], advancing every [shift_period] seconds from [start].
    [rotate_ports] (default true) and [rotate_proto] (default false) also
    vary those header fields per shape. The [gate] is consulted per packet,
    like {!Traffic} sources. *)

val halt : t -> unit

val sent_packets : t -> int

val shapes_used : t -> int
(** Distinct identities presented so far. *)
