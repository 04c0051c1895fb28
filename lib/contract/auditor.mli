(** The victim-side contract auditor (docs/CONTRACTS.md).

    Cross-checks what contracted gateways {e claim} (signed install
    receipts) against what the victim {e observes} (undesired-flow
    arrivals), and convicts gateways that lie. One auditor serves one
    victim host; wire it to the agent's contract hooks:

    - {!note_request} from
      {!Aitf_core.Host_agent.Victim.set_request_observer} — tells the
      auditor which path gateway owes a receipt;
    - {!on_receipt} from
      {!Aitf_core.Host_agent.Victim.set_receipt_sink};
    - {!note_arrival} from
      {!Aitf_core.Host_agent.Victim.set_arrival_observer} — the evidence
      feed.

    Four violation kinds are recognised: {e silent} (deadline passed, no
    receipt, flow still arriving — the accept-then-ignore liar), {e bad
    signature} (a receipt that fails under its named issuer's key — the
    forger), {e replayed} (a re-used sequence number, caught exactly like
    a replayed handshake reply), and {e not policing} (a valid receipt
    whose flow keeps arriving past the grace window — the partial
    policer). Between violations the auditor probes with exponential
    backoff; [k] violations convict, fire [on_flag] once, and shift the
    audit to the next AS on the path — mirroring the failover skip the
    victim's gateway performs.

    A violation always requires arrivals {e after} the evidence watermark,
    so a flow that went quiet (honest install, attack ended) can never
    convict anyone — the zero-false-positive property the acceptance bench
    asserts. *)

open Aitf_net
open Aitf_filter

type t

type violation_kind = Silent | Bad_signature | Replayed | Not_policing

type config = {
  k : int;  (** violations that convict a gateway *)
  deadline : float;
      (** how long a gateway has to produce its first receipt before
          silence becomes a violation *)
  grace : float;
      (** arrivals tolerated after a valid receipt (in-flight packets,
          fluid recompute) before the claim counts as a lie *)
  backoff : float;  (** probing backoff multiplier between violations *)
  period : float;  (** audit tick period, seconds *)
}

val default_config : config
(** [k = 3], [deadline = 2 s], [grace = 1 s], [backoff = 2×],
    [period = 0.5 s]. *)

val create :
  ?config:config ->
  verify:(Addr.t -> Bytes.t -> int64 -> bool) ->
  gateway:Addr.t ->
  on_flag:(Addr.t -> unit) ->
  Aitf_engine.Sim.t ->
  t
(** Start auditing: arms the periodic audit tick immediately. [verify] is
    typically {!Signing.verify} partially applied. [gateway] is the
    victim's own gateway — it closes every path and answers with terminal
    filters, not receipts, so it is excluded from auditing. [on_flag]
    fires exactly once per convicted gateway. *)

val note_request : ?now:float -> t -> Aitf_core.Message.request -> unit
(** A filtering request went out: the first un-flagged gateway on its
    path now owes a receipt within [deadline]. Re-requesting a known flow
    re-arms its deadline without forgetting accumulated violations.
    [?now] overrides the observation timestamp (default [Sim.now] on the
    auditor's own sim) — sharded runs capture the observing shard's
    clock and replay the call through [Sched.defer] at the barrier,
    where the global clock lags the shard's. *)

val note_arrival : t -> Flow_label.t -> float -> unit
(** An undesired packet of [flow] arrived at [time]. *)

val on_receipt : ?now:float -> t -> Aitf_core.Message.receipt -> unit
(** An install receipt arrived: verify its digest and sequence number,
    then either accept it as the flow's coverage claim or record the
    violation it proves. A receipt whose label subsumes an audited flow
    covers it (controller-placed prefix filters). [?now] as in
    {!note_request}. *)

val flagged : t -> Addr.t list
(** Gateways convicted so far, sorted. *)

val flagged_gateway : t -> Addr.t -> bool

val violations : t -> (Addr.t * int) list
(** Per-gateway violation counts, sorted by address. *)

(** Receipt verdicts ({!Aitf_obs.Counters}), registered as
    [auditor.<name>] beside the [auditor.violations] sum and the
    [auditor.gateways_flagged] gauge; not traced. *)
type counter =
  | Receipt_verified  (** keyed digest and sequence number checked out *)
  | Receipt_rejected  (** bad digest, or a replayed sequence number *)

val counter_name : counter -> string
val count : t -> counter -> int
val counters : t -> counter Aitf_obs.Counters.t
