(** Filter-table overload manager: graceful degradation under slot pressure.

    The wire-speed table is the scarce resource an adversary aims at
    (Section III: rotate spoofed sources until the victim's gateway runs out
    of its nv = R1·Ttmp temporary slots). Left alone, the table answers with
    [`Table_full] and the flood leaks. This manager wraps a
    {!Filter_table.t} with watermark hysteresis and three degradation moves,
    trading precision for protection the way El Defrawy et al. frame the
    fixed-budget filtering problem:

    - {b aggregation}: fold the destination with the most exact filters into
      one prefix wildcard (the longest common prefix of the attacking
      sources), evicting everything it subsumes;
    - {b per-requestor caps}: a requestor at its cap pays for its next
      filter with its own least valuable entry instead of everyone else's;
    - {b priority eviction}: when the table is still full, evict the live
      entry with the lowest hit rate (nearest expiry, then label order,
      breaking ties) rather than refuse the install.

    Every decision is counted ({!counter}) and exported through
    {!register_metrics}, including a collateral-damage estimate: legitimate
    packets dropped by manager-installed aggregates. All choices are
    deterministic — no
    randomness, total-order tie-breaks — so seeded runs replay exactly. *)

open Aitf_net

type policy = {
  high_watermark : float;
      (** occupancy fraction at which degraded mode engages *)
  low_watermark : float;  (** fraction at which it disengages (hysteresis) *)
  max_per_requestor : int;
      (** outstanding filters one requestor may hold in degraded mode;
          [max_int] disables the cap *)
  min_aggregate : int;
      (** minimum exact entries an aggregate must replace (>= 2) *)
}

val default_policy : policy
(** 0.9 / 0.6 watermarks, no per-requestor cap, aggregates of >= 2. *)

(** The manager's decisions ({!Aitf_obs.Counters}). [Evict] and
    [Evict_requestor_cap] are also traced on the root of the request that
    installed the evicted filter. *)
type counter =
  | Degraded  (** high watermark crossed: degraded mode entered *)
  | Aggregate  (** exact-filter group folded into one prefix wildcard *)
  | Evict  (** lowest-hit-rate live filter evicted to make room *)
  | Evict_requestor_cap  (** a capped requestor paid with its own filter *)
  | Evict_subsumed  (** live filter evicted into a new aggregate *)

val counter_name : counter -> string  (** e.g. ["overload-evict"] *)

type t

val create : ?policy:policy -> Aitf_engine.Sim.t -> Filter_table.t -> t
(** Wrap a table. The table may still be used directly; the manager only
    acts through {!install}. *)

val install :
  ?rate_limit:float ->
  ?corr:int ->
  ?requestor:Addr.t ->
  t ->
  Flow_label.t ->
  duration:float ->
  (Filter_table.handle, [ `Table_full ]) result
(** Like {!Filter_table.install}, but in degraded mode the manager may
    return the handle of a covering aggregate instead of an exact entry,
    and works through its degradation moves before ever reporting
    [`Table_full]. [?requestor] attributes the entry for the per-requestor
    cap; [?corr] stamps it for span tracing (evictions under pressure emit
    an [overload-evict*] span event against the installing request). Below
    the high watermark this is exactly a plain table install. *)

val note_blocked : t -> Filter_table.handle -> Packet.t -> unit
(** Tell the manager a filter dropped a packet (call from the forwarding
    hook with {!Filter_table.blocking_entry}'s result). Non-attack data
    dropped by a manager-installed aggregate counts as collateral damage. *)

val degraded : t -> bool
(** Pure read; transitions happen on {!install} events only, never on a
    metrics pull. *)

val count : t -> counter -> int
val counters : t -> counter Aitf_obs.Counters.t
val evictions : t -> int  (** the three [Evict*] counts *)

val collateral_packets : t -> int
val collateral_bytes : t -> int

val register_metrics : t -> Aitf_obs.Metrics.t -> prefix:string -> unit
(** Every counter, the [degraded] gauge and the collateral sums under
    [prefix] (e.g. ["gateway.G_gw1.overload"]). *)
