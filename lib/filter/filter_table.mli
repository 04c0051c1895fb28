(** Bounded wire-speed filter table.

    Models the scarce resource at the centre of the paper: a router's
    hardware filters. Capacity is fixed at creation; installs beyond it fail
    (and are counted), entries expire automatically after their duration, and
    the table keeps the statistics the evaluation needs — peak occupancy
    (compare with nv = R1·Ttmp and na = R2·T), capacity rejections, and how
    much traffic each filter actually blocked.

    Matching is O(1) for exact host-pair labels (int-keyed probes, see
    {!Exact_index}) plus a linear scan of the few wildcard entries; a miss
    allocates nothing. {!classify_range} answers the same question for a
    whole range of sources at once, in one walk over the table. *)

open Aitf_net

type t

type handle
(** Identifies one installed filter. *)

val create : Aitf_engine.Sim.t -> capacity:int -> t
(** [capacity] must be positive. *)

val install :
  ?rate_limit:float ->
  ?corr:int ->
  t ->
  Flow_label.t ->
  duration:float ->
  (handle, [ `Table_full ]) result
(** Add a filter that expires after [duration] seconds. Installing a label
    equal to an existing live one refreshes that entry's expiry (to the later
    of the two) instead of consuming a new slot, and returns its handle.

    By default the filter {e blocks} matching traffic. With [?rate_limit]
    (bytes/s) it rate-limits instead: conforming packets pass, the excess is
    dropped — the alternative the paper's footnote 10 argues against for
    DoS traffic (and ablation A5 measures). A refresh without [?rate_limit]
    keeps the original action; a refresh naming a rate honors it (the
    limiter is replaced only when the rate actually changed, so token state
    survives a same-rate refresh).

    A full table first evicts live entries the new label subsumes — a
    wildcard aggregate covering existing exact filters makes its own room —
    and only then reports [`Table_full].

    [?corr] stamps the entry with the correlation id of the filtering
    request that installed it (see {!Aitf_obs.Span}); a refresh naming one
    updates the stamp, a refresh without one keeps it. Purely
    observational. *)

val remove : t -> handle -> unit
(** Uninstall now; idempotent, harmless after expiry. *)

type change =
  | Installed of handle
      (** A new entry, or a refresh of a live one that changed its action:
          block <-> rate-limit, or a new rate. *)
  | Refreshed of handle
      (** A refresh of a live entry that kept its action (no rate given, or
          the same rate): only the expiry, and perhaps the [corr] stamp,
          moved, so what the table does to any packet is unchanged. *)
  | Removed of handle
      (** The entry left the table. *)

val subscribe : t -> (change -> unit) -> unit
(** Observe the table. Every successful {!install} fires exactly one of
    [Installed] or [Refreshed]; [Removed] fires exactly once per entry
    however it leaves (explicit removal, expiry, or subsumption eviction).
    Observers that mirror the table's answers (the fluid engine) can skip
    [Refreshed]; observers that track entries (span closing, placement
    ownership) treat it like [Installed]. With no subscribers the table's
    behaviour and cost are unchanged. *)

val find : t -> Flow_label.t -> handle option
(** Live entry with exactly this label. *)

val sim : t -> Aitf_engine.Sim.t
(** The clock this table was created on — in sharded runs, the owning
    shard's simulator. Subscription callbacks that must timestamp the
    change with the exact install/removal instant read this clock, not
    a global one. *)

val evict_subsumed : t -> Flow_label.t -> int
(** Remove every live entry whose label is subsumed by the given label and
    return how many were evicted — the compaction step used when a
    wildcard aggregate replaces the exact filters it covers. *)

val live_entries : t -> handle list
(** Every live entry, sorted by label — a deterministic snapshot for
    occupancy-pressure policies (the overload manager's eviction scan). *)

val label : handle -> Flow_label.t

val corr : handle -> int option
(** Correlation id of the installing request, when it carried one. *)

val rate_limit : handle -> float option
(** [Some rate] (bytes/s) when the filter rate-limits instead of blocking. *)

val installed_at : handle -> float
val expires_at : handle -> float
val live : handle -> bool

val hits : handle -> int
val hit_bytes : handle -> int
val last_hit : handle -> float option
(** Time of the most recent packet this filter blocked. *)

val blocks : t -> Packet.t -> bool
(** [true] iff some live filter matches the packet. Updates hit counters —
    call it once per packet from the forwarding hook. Wildcards are scanned
    most-specific-first (ties broken by {!Flow_label.compare}), so a narrow
    rate-limited filter is consulted before a broad aggregate. *)

val blocking_entry : t -> Packet.t -> handle option
(** Like {!blocks} but returns the filter that dropped the packet, so the
    caller can attribute the drop (e.g. collateral-damage accounting for
    aggregates). [None] means the packet passes. Updates hit counters. *)

val would_block : t -> Packet.t -> bool
(** Like {!blocks} but without touching counters (for tests/queries). *)

val matching_entry : t -> Packet.t -> handle option
(** The live entry that would act on the packet (most-specific-first, like
    {!blocks}), without touching hit counters or limiter token state. *)

val classify_range :
  t ->
  dst:Addr.t ->
  proto:int ->
  lo:int ->
  hi:int ->
  (int -> int -> handle option -> unit) ->
  unit
(** [classify_range t ~dst ~proto ~lo ~hi f] classifies every source in
    [lo..hi] (unsigned addresses, [0 <= lo <= hi <= 0xFFFF_FFFF]) at once:
    it calls [f a b entry], in ascending order, for each maximal run
    [a..b] whose packets (header [src] in [a..b], this [dst] and [proto],
    ports 0) all get [entry] from {!matching_entry}. The runs cover
    [lo..hi] exactly and adjacent runs carry different entries ([None]:
    no filter acts). Touches no counters or limiter state and builds no
    packet — the query the fluid engine mirrors aggregate filters with.

    Each live wildcard whose destination, [proto] and port qualifiers
    accept the header contributes its source block ([Any] the whole
    space, a prefix its block, a host one address); a run's wildcard is
    the first in scan order covering it. Exact entries override it at
    single sources, unqualified before [proto]-qualified: a range no
    longer than the exact index probes each source, a longer one folds
    the index once.
    @raise Invalid_argument on a range outside the unsigned space. *)

val occupancy : t -> int
val capacity : t -> int
val peak_occupancy : t -> int
val installs : t -> int
(** Successful installs (refreshes of a live entry count too). *)

val rejected : t -> int
(** Installs refused because the table was full. *)

val blocked_packets : t -> int
val blocked_bytes : t -> int

val register_metrics : t -> Aitf_obs.Metrics.t -> prefix:string -> unit
(** Register occupancy/peak gauges and install/rejection/blocked counters
    under [prefix] (e.g. ["gateway.B_gw1.filters"]). Pull-based: the table
    itself pays nothing on the data path. *)
