(** The steps the scenario runners share, written once.

    A step that splits the scenario's RNG or creates events must be called
    at the same point in every runner that uses it: the golden documents
    pin each scenario's RNG stream and event order. *)

open Aitf_net
open Aitf_core
open Aitf_topo
module Rng = Aitf_engine.Rng
module Fluid = Aitf_flowsim.Fluid

val fluid_plane :
  Config.t -> Network.t -> Gateway.t list -> Rng.t -> Fluid.t * Rng.t
(** The hybrid engine's data plane: a fluid engine recomputing every
    [hybrid_epoch] with each gateway's filter table mirrored into it, and
    an RNG split off the scenario's stream for the probe samplers. *)

val attach_probe :
  sim:Aitf_engine.Sim.t -> Config.t -> Rng.t -> Fluid.t -> Fluid.agg -> unit
(** Probe an aggregate at the config's [hybrid_probe_rate] (0 derives it),
    ticking on [sim], seeded by a split of the given RNG. *)

val host_flow :
  sim:Aitf_engine.Sim.t ->
  Config.t ->
  (Fluid.t * Rng.t) option ->
  agent:Host_agent.Attacker.t option ->
  flow_id:int ->
  rate:float ->
  dst:Addr.t ->
  attack:bool ->
  start:float ->
  Network.t ->
  Node.t ->
  unit
(** A host's constant-rate flow under either engine: a packet CBR source
    behind the attacker [agent]'s gate, or (given the {!fluid_plane}) a
    one-source aggregate whose source gate mirrors the agent's strategy
    and which is probed when it is an [attack] flow. *)

val spoofed_pools :
  Chain.t -> Chain.spec -> rate:float -> (string * Addr.prefix) array ->
  Node.t array
(** Origin hosts for spoofed-source pools on the chain, one per
    [(name, prefix)]: pool [j] is 31.0.0.[j+1] in AS [5000 + j], hangs off
    the attacker-side gateways round-robin and advertises [prefix] so
    reverse control traffic routes back to it. Uplinks carry twice the
    offered [rate] (at least the core bandwidth), so the victim's tail
    stays the only bottleneck. Recomputes routes. *)

val start_metrics :
  Aitf_engine.Sim.t -> interval:float -> Aitf_obs.Sampler.t option
(** The run report's time series: a metrics sampler ticking every
    [interval], iff a registry was attached before the world was created. *)

val delivered : Aitf_engine.Sim.t -> Fluid.t option -> attack:bool -> float
(** Attack or legitimate bytes the world's ledger saw delivered — every
    data packet of a scenario is addressed to its victim. Under the hybrid
    engine (given the fluid plane) it reads the fluid plane alone, whose
    probes carry no bytes; under the packet engine, the packet plane. *)

val victim_rate :
  Aitf_engine.Sim.t ->
  period:float ->
  until:float ->
  Fluid.t option ->
  Aitf_stats.Series.t
(** The attack bits/s the victim sees, sampled at every whole multiple
    of [period] up to [until] (the n-th at [n *. period], so a 30 s run
    at 0.1 s has 300 samples, the last at 30 s). Each sample reads the ledger cell {!delivered} reads (the
    fluid plane given the hybrid engine's fluid plane, else the packet
    plane) and records the bytes of the last k = max 1 (round (1 /
    [period])) intervals over k·[period] seconds: a window that counts
    intervals, so both engines see the same 1-second smoothing lag. *)

val absorbed : Aitf_engine.Sim.t -> int
(** To_attacker requests absorbed at spoofed-source pool nodes (the
    ledger's [Pool_absorb] control packets). *)

val filter_installs : Gateway.t list -> int
(** Temporary plus long filter installs over the gateways. *)
