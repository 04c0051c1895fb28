(** Protocol parameters.

    All of AITF's constants live here, named after the paper:
    - [t_filter] is T, the duration every filtering request asks for;
    - [t_tmp] is Ttmp ≪ T, how long the victim's gateway keeps its
      temporary filter while the attacker's gateway takes over — it must
      cover traceback plus the 3-way handshake;
    - [grace] is the grace period an attacker (or its gateway) gets to stop
      a flow before disconnection is considered;
    - [r1]/[r2] are the default filtering-contract rates: R1 is the rate at
      which a provider accepts requests from a client, R2 the rate at which
      a provider may send requests to a client.

    A config also selects the traceback mode and the verification and
    disconnection behaviours, so experiments can toggle each mechanism. *)

type filter_action =
  | Block
  | Rate_limit of float
      (** bytes/s granted to the undesired flow instead of zero — the
          pushback-style alternative footnote 10 argues against for DoS
          traffic; ablation A5 quantifies the difference *)

type traceback_mode =
  | Path_in_request
      (** the requestor supplies the attack path (route record or a
          PPM reconstruction) *)
  | Spie_query of Aitf_traceback.Spie.t
      (** the victim's gateway reconstructs the path itself by capturing a
          filtered packet and querying SPIE digests *)

type engine =
  | Packet  (** every data packet is a discrete event (the default) *)
  | Hybrid
      (** fluid data plane ([Aitf_flowsim]): aggregates carry byte rates,
          links recompute drop-tail shares at epoch boundaries and on rate
          changes; the AITF control plane stays packet-level, bridged by a
          deterministic probe sampler *)

type t = {
  t_filter : float;  (** T (s) *)
  t_tmp : float;  (** Ttmp (s) *)
  grace : float;  (** compliance grace period (s) *)
  handshake : bool;  (** verify requests with the 3-way handshake *)
  handshake_timeout : float;  (** (s) *)
  disconnect : bool;  (** enforce disconnection on non-compliance *)
  disconnect_duration : float;  (** how long a blocklist entry lasts (s) *)
  r1 : float;  (** default client->provider request rate (1/s) *)
  r1_burst : float;
  r2 : float;  (** default provider->client request rate (1/s) *)
  r2_burst : float;
  remote_rate : float;
      (** policing rate for requests from remote (non-contract) gateways *)
  remote_burst : float;
  filter_capacity : int;  (** hardware filter slots per gateway *)
  traceback : traceback_mode;
  min_report_gap : float;
      (** victim-side damper between repeated requests for one flow (s) *)
  aggregate_on_pressure : bool;
      (** when the hardware filter table is full, fall back to one
          wildcarded filter per victim (all sources -> victim) instead of
          failing — protection at the price of collateral damage *)
  filter_action : filter_action;
      (** what the attacker-side full-T filters do (default {!Block}) *)
  ctrl_retries : int;
      (** control-plane retransmissions per message beyond the first
          transmission; [0] (the default) disables retransmission entirely
          and reproduces single-shot behaviour bit-for-bit *)
  ctrl_rto : float;
      (** initial control-plane retransmission timeout (s); doubles (times
          {!ctrl_backoff}) on every retry *)
  overload_manager : bool;
      (** wrap every gateway's filter table in the
          {!Aitf_filter.Overload} manager: watermark-driven degraded mode
          with prefix aggregation, per-requestor caps and priority eviction
          instead of bare [`Table_full] refusals (the high watermark and
          cap of {!Aitf_filter.Overload.default_policy}). Off (the default)
          keeps installs byte-identical to the unmanaged table. *)
  overload_low : float;
      (** occupancy fraction that disengages it (default 0.6) *)
  engine : engine;
      (** which data-plane substrate scenario runners build (default
          {!Packet}; the choice never alters packet-engine behaviour) *)
  hybrid_epoch : float;
      (** fluid-share recompute period (s, default 0.1); recomputes also
          happen immediately on any filter or rate change *)
  hybrid_probe_rate : float;
      (** representative packets materialised per aggregate (packets/s);
          [0.] (the default) derives a rate from the aggregate's own packet
          rate, capped so probe cost stays bounded *)
  placement : Placement.policy;
      (** which filter-placement policy scenario runners wire up (default
          {!Placement.Vanilla}, today's escalate-upstream propagation;
          the choice never alters vanilla gateway behaviour) *)
  placement_epoch : float;
      (** managed-placement controller decision period (s, default 0.5) *)
}

val max_rounds : int  (** escalation bound (8) *)

val shadow_capacity : int  (** DRAM shadow entries per gateway (100k) *)

val ctrl_backoff : float  (** control-plane backoff factor (2) *)

val default : t
(** The paper's running example where it gives numbers: T = 60 s,
    Ttmp = 1 s (600 ms handshake budget plus margin), grace = 0.5 s,
    handshake on, disconnection off (scenarios enable it), R1 = 100/s,
    R2 = 1/s, 1000 filters, 100k shadow entries, path-in-request
    traceback. *)

val with_timescale : t -> float -> t
(** Scale the protocol horizons (T, Ttmp, disconnection, report damping) by
    a factor — used to shrink T in long sweeps so simulations stay fast
    while preserving the ratios the formulas depend on. The handshake
    timeout, control-plane RTO and grace period are left alone, and Ttmp
    and the report gap
    are floored, because those are bounded below by network round trips,
    which a timescale change does not shrink. *)
