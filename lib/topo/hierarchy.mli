(** A provider hierarchy: core — ISPs — enterprise networks — hosts.

    The topology for multi-attacker and scaling experiments. A single core
    router interconnects [isps] ISP border routers; each ISP serves
    [nets_per_isp] enterprise networks, each with a border gateway and
    [hosts_per_net] hosts. Routing advertisements are aggregated — each
    enterprise /16 is advertised globally by its gateway, host /32s stay
    AS-local — so FIBs stay small as the hierarchy grows.

    Address plan: host k of net j of ISP i is [(10+i).j.0.(10+k)]; the net
    gateway is [(10+i).j.0.1]; the ISP gateway [(10+i).255.0.1] with the
    whole [(10+i).0.0.0/8] as its customer cone. *)

open Aitf_net
open Aitf_core

type spec = {
  isps : int;
  nets_per_isp : int;  (** <= 255 *)
  hosts_per_net : int;  (** <= 200 *)
  tail_bw : float;  (** host access links *)
  net_bw : float;  (** enterprise <-> ISP *)
  core_bw : float;  (** ISP <-> core *)
  access_delay : float;
  hop_delay : float;
  queue_capacity : int;
}

val default_spec : spec
(** 3 ISPs × 4 nets × 4 hosts, 10 Mbit/s tails, 100 Mbit/s enterprise
    uplinks, 1 Gbit/s core, 5 ms access, 10 ms hops. *)

type t = {
  net : Network.t;
  core : Node.t;
  isp_gws : Node.t array;
  net_gws : Node.t array array;  (** [.(isp).(net)] *)
  hosts : Node.t array array array;  (** [.(isp).(net).(host)] *)
}

val build : Aitf_engine.Sim.t -> spec -> t

val host : t -> isp:int -> net:int -> host:int -> Node.t
val net_prefix : isp:int -> net:int -> Addr.prefix
val isp_prefix : isp:int -> Addr.prefix

type deployed = {
  topo : t;
  net_gateways : Gateway.t array array;
  isp_gateways : Gateway.t array;
}

val deploy :
  ?policies:(isp:int -> net:int -> Policy.gateway_policy) ->
  config:Config.t ->
  rng:Aitf_engine.Rng.t ->
  t ->
  deployed
(** Run AITF on every enterprise and ISP gateway. [policies] selects each
    enterprise gateway's cooperation (default: all cooperative). Enterprise
    gateways escalate to their ISP gateway; ISP gateways are top-level. *)

val attach_victim :
  ?td:float ->
  ?path_source:Host_agent.path_source ->
  deployed ->
  config:Config.t ->
  isp:int ->
  net:int ->
  host:int ->
  Host_agent.Victim.t

val attach_attacker :
  ?strategy:Policy.attacker_response ->
  deployed ->
  config:Config.t ->
  isp:int ->
  net:int ->
  host:int ->
  Host_agent.Attacker.t
