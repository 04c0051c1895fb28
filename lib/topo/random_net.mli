(** Random AS-level topologies: transit mesh + multi-homed stubs.

    The chain and the strict hierarchy are clean but regular; AITF's
    correctness arguments should not depend on that. This builder produces
    randomised two-tier internets: [transits] transit ASes connected in a
    ring plus random extra peerings, and [stubs] edge ASes each homed to a
    random transit (and, with probability [multihoming_p], to a second
    one). Routing (shortest path over delays) handles the resulting path
    diversity; all randomness comes from the supplied {!Aitf_engine.Rng.t},
    so a seed fully determines the topology.

    Address plan: stub s is [10.s.0.0/16] (gateway [10.s.0.1], hosts
    [10.s.0.(10+k)]); transit i's gateway is [172.i.0.1]. *)

open Aitf_net
open Aitf_core

type spec = {
  transits : int;  (** >= 2 *)
  stubs : int;  (** 1..200 *)
  hosts_per_stub : int;
  multihoming_p : float;
  extra_peering_p : float;
      (** probability of each extra transit-transit link beyond the ring *)
  tail_bw : float;
  stub_bw : float;
  core_bw : float;
  access_delay : float;
  hop_delay : float;
  queue_capacity : int;
}

val default_spec : spec
(** 4 transits, 12 stubs, 2 hosts each, 30% multihoming, 30% extra
    peerings. *)

type t = {
  net : Network.t;
  transit_gws : Node.t array;
  stub_gws : Node.t array;
  hosts : Node.t array array;  (** [.(stub).(host)] *)
  stub_primary : int array;  (** index of each stub's primary transit *)
  stub_secondary : int option array;
}

val build : Aitf_engine.Sim.t -> Aitf_engine.Rng.t -> spec -> t

val host : t -> stub:int -> host:int -> Node.t

type deployed = {
  topo : t;
  stub_gateways : Gateway.t array;
  transit_gateways : Gateway.t array;
}

val deploy :
  ?policies:(stub:int -> Policy.gateway_policy) ->
  config:Config.t ->
  rng:Aitf_engine.Rng.t ->
  t ->
  deployed
(** AITF on every stub and transit gateway. Stub gateways escalate to their
    primary transit; transit gateways are top level. A transit's customer
    cone is the union of its homed stubs' prefixes. *)

val attach_victim :
  ?td:float ->
  deployed ->
  config:Config.t ->
  stub:int ->
  host:int ->
  Host_agent.Victim.t

val attach_attacker :
  ?strategy:Policy.attacker_response ->
  deployed ->
  config:Config.t ->
  stub:int ->
  host:int ->
  Host_agent.Attacker.t
