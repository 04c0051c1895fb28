(** Deterministic probe sampler — the fluid-to-packet bridge.

    Materialises representative zero-byte {!Aitf_net.Packet.Data} packets
    from a fluid aggregate at a bounded rate, choosing the header source
    uniformly (seeded RNG) among the aggregate's currently-sending sources.
    Probes traverse the real packet plane: border routers append route
    records, filters and shadow caches match them, the victim's detector
    observes them, and saturated links drop them with the fluid loss
    fraction — so every AITF control-plane mechanism runs unmodified while
    the bytes stay in the rate domain. *)

type t

val attach :
  rate:float ->
  ?sim:Aitf_engine.Sim.t ->
  rng:Aitf_engine.Rng.t ->
  Fluid.t ->
  Fluid.agg ->
  t
(** Start probing the aggregate at [rate] packets/s. A [rate] of 0 (the
    [hybrid_probe_rate] default) derives it from the aggregate's own
    packet rate capped at 200/s — sampling cost never scales with source
    population. The first probe lands at a seeded
    random fraction of the inter-probe gap so aggregates desynchronise.
    [?sim] overrides the world the probe ticks are scheduled on (the
    parallel engine passes the origin pool's shard; default is the
    network-wide sim). *)

val sent : t -> int
val skipped : t -> int
(** Ticks where no sending source could be found (all blocked at source). *)

val probe_gap : t -> float
