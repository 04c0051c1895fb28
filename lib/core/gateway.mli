(** The AITF gateway: a border router speaking the protocol.

    One [Gateway.t] attaches to a border-router node and implements both
    protocol roles of Section II-C:

    {b Victim's gateway} — on a [To_victim_gateway] request from a client
    (or a downstream gateway escalating): police against the client's R1
    contract, validate that the requestor and the flow's destination are
    inside the customer cone, install a {e temporary} filter for Ttmp, log
    the request in the DRAM shadow cache for T, and forward the request to
    the attack path's round-appropriate gateway. When the temporary filter
    lapses, the shadow entry keeps watching: a matching packet seen while
    monitoring means the attacker's side did not take over (or is playing
    on-off), so the gateway re-protects and {e escalates} — it plays victim
    towards its own upstream gateway with [hops + 1]. A gateway with no
    upstream handles the next round itself; a path that runs out triggers
    terminal filtering (and peer disconnection when enabled).

    {b Attacker's gateway} — on a [To_attacker_gateway] request: police the
    remote requestor and the R2 contract of the implicated client, verify
    the request with the 3-way handshake, install a filter for the full T,
    propagate [To_attacker] to the client, and monitor compliance via the
    filter's hit counters — a client still sending after the grace period is
    disconnected (blocklisted) when disconnection is enabled.

    Statistics for every decision are exposed through {!count}. *)

open Aitf_net
open Aitf_filter

type t

val create :
  ?policy:Policy.gateway_policy ->
  ?upstream:Addr.t ->
  ?placement:Placement.t ->
  clients:Addr.prefix list ->
  config:Config.t ->
  rng:Aitf_engine.Rng.t ->
  Network.t ->
  Node.t ->
  t
(** Attach a gateway to [node]: installs the forwarding hook (blocklist →
    filter check → shadow watch → route-record stamp) and takes over
    AITF-message delivery. [clients] is the customer cone — every prefix
    this gateway is responsible for. [upstream] is the provider gateway
    used for escalation (absent for a top-level/core gateway).

    [placement] is the filter-placement seam: with a {e managed} handle
    ({!Placement.Optimal} or {!Placement.Adaptive}) the gateway keeps its
    local roles — policing, shadow logging, temporary Ttmp protection —
    but reports attack evidence through {!Placement.report} instead of
    propagating requests along the path or escalating upstream; the
    placement controller then owns long-filter installation. Absent, or
    with a {!Placement.Vanilla} handle, behaviour is exactly the classic
    escalate-upstream propagation, bit for bit. *)

val node : t -> Node.t
val addr : t -> Addr.t
val config : t -> Config.t
val policy : t -> Policy.gateway_policy

val set_contract : t -> peer:Addr.t -> rate:float -> burst:float -> unit
(** Override the policing rate for one requestor (client or peer); absent
    an override, clients get R1 and remote requestors the remote default. *)

val set_client_contract : t -> client:Addr.t -> rate:float -> burst:float -> unit
(** Override the R2 rate at which this gateway may send requests to one of
    its clients; absent an override, the config's R2 applies. *)

val filters : t -> Filter_table.t

val overload : t -> Overload.t option
(** The filter-table overload manager, present iff
    [config.overload_manager] was set at creation. *)

val shadow_peak : t -> int

val blocklisted : t -> Addr.t -> bool
(** Is this host currently disconnected? *)

(** One decision counter per protocol outcome ({!Aitf_obs.Counters}).
    {!counter_name} is the decision's one name: the [--stats] table prints
    it (docs/OPERATIONS.md), the span event traced at the decision carries
    it (docs/OBSERVABILITY.md), and the gateway registers the counter as
    the metric [gateway.<node>.<name>] when a registry is attached. *)
type counter =
  | Req_received  (** request delivered to this gateway, before policing *)
  | Req_victim_role  (** request handled as victim's gateway *)
  | Req_attacker_role  (** request handled as attacker's gateway *)
  | Req_propagated  (** request sent on to this round's attacker side *)
  | Req_duplicate  (** retransmitted or duplicated request, a free no-op *)
  | Req_policed  (** dropped by the requestor's R1/remote policer *)
  | Req_policed_client  (** to-attacker request held back by R2 *)
  | Req_invalid  (** requestor or victim outside the customer cone *)
  | Req_not_on_path  (** attacker-side request for a flow not via us *)
  | Req_no_path  (** no path to propagate along: local protection only *)
  | Req_bad_auth  (** keyed digest did not verify (contracts on) *)
  | Req_to_attacker  (** request forwarded to the attacking client *)
  | Req_to_attacker_ignored  (** to-attacker request addressed to us *)
  | Policer_overflow  (** requestor past the tracking bound, shared bucket *)
  | Ignored_unresponsive  (** dropped by an [Unresponsive] gateway *)
  | Handshake_ok
  | Handshake_fail
  | Handshake_unverifiable  (** no single victim to query *)
  | Handshake_retransmit  (** verification query resent after a timeout *)
  | Handshake_duplicate_reply  (** replayed reply to a verified nonce *)
  | Handshake_bogus_reply  (** reply with an unknown nonce or wrong flow *)
  | Filter_temp  (** temporary (Ttmp) filter installed *)
  | Filter_long  (** long (T) filter installed for a request *)
  | Filter_long_self  (** path climbed to us: long filter kept locally *)
  | Filter_full  (** install refused, table full *)
  | Filter_aggregated  (** wildcard aggregate installed under pressure *)
  | Shadow_full  (** request not logged, shadow cache full *)
  | Escalated  (** round escalated after the flow reappeared *)
  | Terminal_filter  (** path exhausted: filtering terminally *)
  | Disconnect_host  (** non-compliant client blocklisted *)
  | Disconnect_peer  (** peering towards the attacker cut *)
  | Ctrl_retransmit  (** request resent, temp filter still hit *)
  | Ctrl_gave_up  (** retry budget exhausted *)
  | Traceback_pending  (** SPIE mode: waiting for a specimen packet *)
  | Traceback_done
  | Traceback_failed
  | Placement_report  (** evidence handed to the placement controller *)
  | Receipt_issued  (** genuine install receipt sent *)
  | Receipt_forged  (** fabricated receipt sent ([Forge_receipts]) *)
  | Receipt_replayed  (** stale receipt re-sent ([Replay_receipts]) *)
  | Contract_ignored  (** request accepted then ignored (Byzantine) *)
  | Contract_partial  (** request rate-limited only ([Partial_policing]) *)
  | Contract_failover  (** flow re-engaged past a flagged peer *)
  | Peer_flagged  (** peer recorded as Byzantine *)
  | Flagged_skipped  (** flagged path entry skipped by engage *)

val counter_name : counter -> string
(** Kebab-case name, e.g. ["req-victim-role"]; distinct per counter. *)

val all_counters : counter list
(** Every counter, in declaration order. *)

val count : t -> counter -> int
(** How often this gateway took the decision so far. *)

val active_flows : t -> (Flow_label.t * string) list
(** The flows this gateway currently remembers as victim's gateway, with
    their phase (["filtering"], ["monitoring"], ["delegated"],
    ["awaiting-path"]) — the live protocol state an operator would list. *)

val tracked_requestors : t -> int
(** Distinct requestors currently holding their own policing bucket —
    bounded; past the bound, unknown requestors share one overflow
    bucket. *)

(** {1 Verifiable filtering contracts}

    The optional contract layer of docs/CONTRACTS.md. Off by default, and
    when off every code path is bit-identical to the pre-contract
    protocol. When enabled ({!enable_contracts}):

    - outgoing filtering requests carry a keyed digest of their canonical
      wire bytes ({!Wire.signing_bytes}) under this gateway's key, and
      incoming requests are verified against the requestor's key
      (failures counted as [Req_bad_auth] and dropped);
    - honoring a request also issues an {e install receipt} to the flow's
      victim, refreshed every [refresh] seconds while the filter stays
      resident, so a victim-side auditor ([Aitf_contract.Auditor]) can
      cross-check the claim against observed arrivals;
    - peers convicted of lying by the auditor can be {!flag_peer}ed:
      {e engage} then skips them on the recorded path and {!fail_over}
      re-engages the flows stuck behind them (graceful Byzantine
      failover). *)

(** How this gateway honours contracts — [Honest] unless a
    Lying_filter_node playbook corrupted it. *)
type contract_behavior =
  | Honest
  | Accept_ignore
      (** accept the request (handshake and all), install nothing, send
          no receipts *)
  | Partial_policing of float
      (** install a filter that merely rate-limits to this many bytes/s
          while the receipts claim full policing *)
  | Forge_receipts
      (** install nothing; fabricate receipts without the gateway's key
          material, so their digests fail verification *)
  | Replay_receipts
      (** install only briefly, then replay the first (genuine) receipt —
          stale sequence number and all — at every refresh *)

val enable_contracts :
  ?refresh:float ->
  t ->
  sign:(Bytes.t -> int64) ->
  verify:(Addr.t -> Bytes.t -> int64 -> bool) ->
  unit
(** Turn the contract layer on. [sign] digests canonical bytes under this
    gateway's key; [verify addr bytes digest] checks a digest under
    [addr]'s key (both typically from [Aitf_contract.Signing]).
    [refresh] is the receipt refresh period (default 5 s). Raises
    [Invalid_argument] if already enabled. *)

val set_contract_behavior : t -> contract_behavior -> unit
(** Corrupt (or heal) this gateway's compliance behaviour. Raises
    [Invalid_argument] when contracts are not enabled. *)

val flag_peer : t -> Addr.t -> unit
(** Record a Byzantine verdict against [peer]: engage will skip it on any
    recorded path from now on. Idempotent. *)

val fail_over : t -> peer:Addr.t -> int
(** Re-engage every live flow whose current round points at [peer]
    (deterministically, in flow-label order); with [peer] flagged, each
    request now goes to the next AS on its path. Returns how many flows
    were re-engaged. *)
