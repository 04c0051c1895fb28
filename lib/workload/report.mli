(** Inspection reports over a simulated network.

    Renders per-node and per-link statistics, gateway counters and filter
    occupancy as {!Aitf_stats.Table}s — what the CLI prints under
    [--stats] and what post-mortem debugging reaches for first. *)

open Aitf_net

val node_table : Network.t -> Aitf_stats.Table.t
(** One row per node: received/forwarded/delivered packets and the
    non-zero drop counts (fate=count, in {!Aitf_obs.Ledger.fates} order). *)

val link_table : ?busy_only:bool -> Network.t -> Aitf_stats.Table.t
(** One row per directed link: transmitted and dropped traffic plus
    utilisation over the elapsed simulation time. [busy_only] (default
    true) hides links that never carried a packet. *)

val gateway_table : Aitf_core.Gateway.t list -> Aitf_stats.Table.t
(** One row per gateway: filter occupancy/peak, shadow peak, requests
    received and the non-zero decision counters. *)

val metrics_table : Aitf_obs.Metrics.t -> Aitf_stats.Table.t
(** One row per registered metric (sorted by name) from a live snapshot:
    name, kind, value (a histogram shows sample count and mean), unit. *)
