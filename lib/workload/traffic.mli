(** Traffic generation.

    Sources inject packets from a node towards a destination. Every source
    consults an optional {e gate} before each packet — the hook through
    which a compliant attacker host's own filters (see
    {!Aitf_core.Host_agent.Attacker.gate}) or an on-off strategy throttle
    it. Sources can spoof their header source address per packet and mark
    their packets as attack traffic (scenario ground truth for the victim's
    detector).

    Two arrival processes are provided: constant bit rate and Poisson. *)

open Aitf_net
open Aitf_filter

type t

val cbr :
  ?gate:(Packet.t -> bool) ->
  ?spoof:(unit -> Addr.t option) ->
  ?start:float ->
  ?stop:float ->
  ?pkt_size:int ->
  ?attack:bool ->
  flow_id:int ->
  rate:float ->
  dst:Addr.t ->
  Network.t ->
  Node.t ->
  t
(** Constant bit rate: [rate] bits/s in [pkt_size]-byte packets (default
    1000 B), from [start] (default 0) until [stop] (default: forever).
    [attack] (default false) marks packets as undesired. *)

val poisson :
  ?gate:(Packet.t -> bool) ->
  ?spoof:(unit -> Addr.t option) ->
  ?start:float ->
  ?stop:float ->
  ?pkt_size:int ->
  ?attack:bool ->
  rng:Aitf_engine.Rng.t ->
  flow_id:int ->
  rate:float ->
  dst:Addr.t ->
  Network.t ->
  Node.t ->
  t
(** Poisson arrivals with mean rate [rate] bits/s. *)

val halt : t -> unit
(** Stop generating permanently, cancelling the pending emission event. *)

val flow_id : t -> int
val sent_packets : t -> int

val refuse : Network.t -> Node.t -> Packet.t -> unit
(** Account a packet its source's gate refused: offered and [Gated] in the
    ledger of the node's world (what {!cbr}/{!poisson} sources do). *)

val label : t -> src:Addr.t -> Flow_label.t
(** The flow label this source's packets carry, given the header source it
    uses ([src] is the node address unless spoofing). *)
