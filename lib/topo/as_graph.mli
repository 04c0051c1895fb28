(** Generated AS-level Internet: power-law domains, Gao–Rexford routing.

    The third topology family, beyond the Figure-1 chain and the regular
    provider hierarchy: a generated graph of thousands of gateway domains
    whose degree sequence follows a power law (preferential attachment
    onto a fully-meshed tier-1 clique) and whose edges carry business
    relationships — {e provider/customer} uplinks and {e peer} links.

    Routing is {e valley-free} (Gao–Rexford): a path climbs customer →
    provider edges, crosses at most one peer link, then descends provider
    → customer edges. FIBs are installed directly by {!build} — one
    explicit entry per customer-cone destination, explicit entries for
    peer cones, and a default route to the primary provider — so tables
    stay small (BGP-style aggregation) and {!Aitf_net.Network.compute_routes}
    must {b not} be called on this topology (it would overwrite the
    policy routes with shortest paths).

    Each domain is one border-router node that doubles as the domain's
    AITF gateway; hosts and fluid source pools attach behind it inside the
    domain's /16. Every structural decision is drawn from the caller's
    {!Aitf_engine.Rng.t}, so the same seed regenerates the same Internet
    bit for bit. See docs/TOPOLOGY.md. *)

open Aitf_net
open Aitf_core

type spec = {
  domains : int;  (** total domains (>= tier1 + 1, <= 16384) *)
  tier1 : int;  (** fully-meshed top-level clique (>= 2) *)
  multihome : int;  (** provider uplinks per non-tier-1 domain (>= 1) *)
  peer_p : float;  (** probability a new domain adds one lateral peer link *)
  core_bw : float;  (** tier-1 mesh bandwidth (bits/s) *)
  uplink_bw : float;  (** provider and peer link bandwidth (bits/s) *)
  access_bw : float;  (** host/pool access bandwidth (bits/s) *)
  hop_delay : float;  (** inter-domain link propagation delay (s) *)
  access_delay : float;  (** host/pool access delay (s) *)
  queue_capacity : int;  (** per-link queue (bytes) *)
}

val default_spec : spec
(** 1000 domains, 4 tier-1s, 2 uplinks each, peer probability 0.15. *)

type t

val build : Aitf_engine.Sim.t -> Aitf_engine.Rng.t -> spec -> t
(** Generate the graph, create one border-router node per domain, connect
    the edges and install the valley-free FIBs. All randomness comes from
    the given rng; equal to [materialise sim (plan rng spec)], draw for
    draw. @raise Invalid_argument on an out-of-range spec. *)

(** {2 Two-phase construction (parallel engine)}

    Sharded runs must know the domain->shard map {e before} links exist
    (each link lives on its transmitter's shard), so generation is split:
    {!plan} makes every RNG draw and records the structure, {!partition}
    maps domains to shards, {!materialise} then builds the network —
    optionally sharded via [?sim_of_as] — without consuming randomness. *)

type plan
(** The generated structure before any network object exists: provider /
    customer / peer relations plus the edge list in creation order. *)

val plan : Aitf_engine.Rng.t -> spec -> plan
(** All of {!build}'s randomness, none of its side effects.
    @raise Invalid_argument when {!check} fails. *)

val check : spec -> (unit, string) result
(** [Error] on an out-of-range spec: fewer than 2 tier-1 providers, no
    domain below them, more than 16384 domains (each owns a /16, see
    {!domain_prefix}), or no provider uplink. *)

val materialise :
  ?sim_of_as:(int -> Aitf_engine.Sim.t) -> Aitf_engine.Sim.t -> plan -> t
(** Build nodes, links and FIBs from a plan. RNG-free, so
    [materialise sim (plan rng spec)] leaves the stream exactly where
    {!build} would. [?sim_of_as] is passed to {!Aitf_net.Network.create}:
    domain [d]'s links and timers land on [sim_of_as d]. *)

val partition : plan -> shards:int -> weight:(int -> float) -> int array
(** A deterministic min-cut-aware domain->shard map: multi-seed BFS
    region growing balanced by [weight] (heaviest domains seed the
    regions; the lightest shard always grows next), then two boundary
    refinement sweeps that move a domain to the shard holding the
    majority of its provider/customer/peer edges when that strictly
    shrinks the cut without exceeding 115% of the balanced load. Returns
    shard ids in [\[0, min shards domains)]. Pure in (plan, weight).
    @raise Invalid_argument if [shards < 1] or a weight is negative or
    NaN. *)

val net : t -> Network.t
val spec : t -> spec
val n_domains : t -> int

val domain_prefix : int -> Addr.prefix
(** The /16 assigned to a domain: domain [d] owns [4.0.0.0 + d·2^16]/16,
    so prefixes never collide with the chain/hierarchy/swarm address
    plans. *)

val router : t -> int -> Node.t
(** The domain's border router (= its AITF gateway node); its address is
    the domain prefix's base + 1. *)

val providers : t -> int -> int list
(** Sorted ascending; empty exactly for tier-1 domains. *)

val customers : t -> int -> int list
val peers : t -> int -> int list
val degree : t -> int -> int
val is_stub : t -> int -> bool
(** No customers — a leaf domain. *)

val route : t -> src:int -> dst:int -> int list option
(** The domain-level path actually taken by a packet from [src]'s router
    to [dst]'s router, endpoints included — a FIB walk, not a recompute.
    [None] when the walk fails (no route, or more than 64 hops). *)

val valley_free : t -> int list -> bool
(** Does this domain path match customer-up* (peer)? provider-down*? *)

val attach_host : t -> domain:int -> Node.t
(** Attach one host behind the domain router (access link, /32 route in
    the router, default route in the host). Addresses are sequential from
    the domain base + 10. *)

val attach_pool : t -> domain:int -> range:Addr.prefix -> Node.t
(** Attach a fluid source-pool node behind the domain router and route
    [range] (which must sit inside the domain prefix) to it, so reverse
    control traffic towards the pool's spoofed sources reaches the pool
    node instead of looping on the default route. *)

type deployed = { graph : t; gateways : Gateway.t array }

val deploy :
  ?placement:Placement.t ->
  ?contract:Contract.t ->
  ?policies:(int -> Policy.gateway_policy) ->
  config:Config.t ->
  rng:Aitf_engine.Rng.t ->
  t ->
  deployed
(** One AITF gateway per domain router. Escalation upstream follows the
    primary (lowest-id) provider; tier-1 gateways have no upstream. The
    customer cone handed to each gateway is its own domain prefix.
    [placement] is passed through to every gateway (the placement seam);
    [contract] applies {!Contract.apply_provider_side} on every
    provider->customer edge, replacing the config's default R1/R2 rates
    with the contracted ones; [policies] assigns per-domain gateway
    policies (default: all cooperative). *)
