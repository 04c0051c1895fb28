(** Fluid traffic plane — the hybrid engine's rate-domain data path.

    Each aggregate is a set of sources behind one origin node (a contiguous
    address range, so a million sources cost one record plus one int of
    filter state each) sending a uniform byte rate to one destination.
    Links are rate servers: whenever filter state or an aggregate's rate
    changes — and at every epoch boundary — the engine recomputes the
    proportional drop-tail share of every link a fixed point over the
    aggregates' paths, then publishes per-link offered/admitted load back
    to {!Aitf_net.Link} so discrete control packets compete with the fluid.

    Filter state reaches the rate domain through
    {!Aitf_filter.Filter_table.subscribe}: attach each gateway's (or a
    compliant source's) table with {!attach_table} and installs, expiries
    and evictions (not refreshes that keep the action) are mirrored onto the per-source block masks — blocking
    filters zero a source's rate at that hop, rate-limit filters cap it.

    The engine never creates packets, not even to mirror a filter: it
    asks the table to classify whole source ranges
    ({!Aitf_filter.Filter_table.classify_range}). The {!Sampler}
    materialises representative probe packets from aggregates so the
    unchanged AITF control plane (route records, flow matching,
    detection, handshakes) keeps working. *)

open Aitf_net
open Aitf_filter

type t
type agg

val create : ?epoch:float -> Network.t -> t
(** A fluid engine over the network's topology. [epoch] (default 0.1 s) is
    the periodic share-recompute interval; changes additionally trigger an
    immediate (coalesced) recompute. Routes must already be computed. *)

val add_aggregate :
  ?pkt_size:int ->
  ?flow_id:int ->
  ?stop:float ->
  t ->
  origin:Node.t ->
  src_base:Addr.t ->
  n:int ->
  rate:float ->
  dst:Addr.t ->
  attack:bool ->
  start:float ->
  agg
(** [n] sources with contiguous addresses [src_base .. src_base+n-1] behind
    [origin], together offering [rate] bits/s to [dst] from [start] until
    [stop] (default: forever). The path is derived by walking FIBs, so
    routes must be computed first. [pkt_size] (default 1000 B) is the
    notional packet size used for probe-rate derivation.
    @raise Invalid_argument when the range runs past 255.255.255.255:
    source addresses are unsigned and do not wrap. *)

val attach_table :
  ?defer:((unit -> unit) -> unit) -> t -> node:Node.t -> Filter_table.t -> unit
(** Mirror [table]'s state onto every aggregate stage sitting at [node].
    On each change, every stage the changed label can touch has the
    label's share of its source range re-classified against the whole
    table ({!Aitf_filter.Filter_table.classify_range}, header [proto] 17
    and ports 0, as on the sampler's probes): each run of sources sharing
    one matching entry gets that entry's fate — blocked, capped at its
    rate limit, or passed — in one pass over the run. A
    {!Aitf_filter.Filter_table.Refreshed} change (a re-install that kept
    the action) alters no answer and is skipped, O(1). Entries already in
    the table when it is attached are classified then, once, for every
    stage at [node] (and {!add_aggregate} does the same for a new
    aggregate's stages at attached nodes), so the mirror starts in sync;
    with an empty table this costs nothing. [?defer] wraps the change
    callback (default: run immediately); the parallel engine passes
    [Sched.defer] so shard-phase filter changes mutate the shared fluid
    state only at barriers — safe because the mirror re-derives ground
    truth from the table on every change it replays, and the refresh skip
    is decided before deferral, from the change itself. *)

val set_block : t -> agg -> idx:int -> stage:int -> bool -> unit
(** Manually block/unblock one source at one stage — the bridge used by
    source-strategy code (e.g. on-off attackers) that does not act through
    a filter table. Stage 0 is the source's own gate. *)

val recompute : t -> unit
(** Force an immediate share recompute (normally automatic). *)

(** {2 Reporting} *)

val delivered_rate : agg -> float
(** Current delivery rate (bits/s) as of the last recompute. *)

val aggregates : t -> int
val total_sources : t -> int
val recomputes : t -> int

val link_visits : t -> int
(** Cumulative per-link updates across all recomputes — the epoch cost. *)

val blocked_sources : agg -> int
(** Sources with at least one blocking stage. *)

(** {2 Aggregate accessors (for the sampler and bridges)} *)

val network : t -> Network.t
val epoch : t -> float

val iter_aggregates : t -> (agg -> unit) -> unit
(** Visit every aggregate in insertion (aid) order — the deterministic
    enumeration placement controllers plan from. *)

val stage_nodes : agg -> Node.t list
(** The aggregate's filter-stage nodes in path order: element 0 is the
    origin (the source's own gate), the last element is the destination's
    last-hop router. Placement controllers use this to know which gateways
    an aggregate's traffic crosses. *)

val n_sources : agg -> int
val origin : agg -> Node.t

val src_base : agg -> Addr.t
(** First address of the aggregate's contiguous source range
    (= [source_addr agg 0]). *)

val dst : agg -> Addr.t
val attack : agg -> bool
val flow_id : agg -> int
val pkt_size : agg -> int
val total_rate : agg -> float
val active : agg -> bool
val source_addr : agg -> int -> Addr.t

val source_index : agg -> Addr.t -> int option
(** Inverse of {!source_addr}: the index of an address inside the
    aggregate's range, if any. *)

val source_sending : agg -> int -> bool
(** The aggregate is active and the source is not blocked at its own gate
    (stage 0) — i.e. its traffic is on the wire. *)
