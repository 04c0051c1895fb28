(** DRAM shadow cache of filtering requests.

    The paper's key resource trade: a gateway keeps a hardware filter only
    for Ttmp ≪ T, but remembers the request in cheap DRAM for the full T so
    that "on-off" flows are recognised the instant they reappear. The cache
    is bounded (mv = R1·T entries suffice per contract), entries expire after
    their TTL, and each entry carries caller data — the AITF gateway stores
    its per-flow protocol state here.

    Lookup mirrors {!Filter_table}: hash probes for exact host-pair labels
    plus a scan of wildcard entries. *)

open Aitf_net

type 'a t

type 'a entry

val create : Aitf_engine.Sim.t -> capacity:int -> 'a t

val insert :
  'a t -> Flow_label.t -> ttl:float -> 'a -> ('a entry, [ `Full ]) result
(** Remember a flow for [ttl] seconds. Re-inserting a live label replaces
    its data and extends its expiry (to the later deadline). *)

val find : 'a t -> Flow_label.t -> 'a entry option
(** Live entry with exactly this label. *)

val match_packet : 'a t -> Packet.t -> 'a entry option
(** Live entry whose label matches the packet, if any. *)

val remove : 'a t -> 'a entry -> unit

val refresh : 'a t -> 'a entry -> ttl:float -> unit
(** Push the expiry out to [now + ttl] (never shortens). *)

val data : 'a entry -> 'a
val label : 'a entry -> Flow_label.t
val expires_at : 'a entry -> float
val live : 'a entry -> bool

val occupancy : 'a t -> int
val capacity : 'a t -> int
val peak_occupancy : 'a t -> int
val rejected : 'a t -> int

val hits : 'a t -> int
(** {!match_packet} calls that found a live entry. *)

val misses : 'a t -> int
(** {!match_packet} calls that found nothing. *)

val register_metrics : 'a t -> Aitf_obs.Metrics.t -> prefix:string -> unit
(** Register occupancy/peak/hit-rate gauges and insert/rejection/hit/miss
    counters under [prefix] (e.g. ["gateway.G_gw1.shadow"]). *)

val iter : 'a t -> ('a entry -> unit) -> unit
(** Visit all live entries. *)
