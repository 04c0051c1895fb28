(** End-host AITF agents.

    {!Victim} turns a host into an AITF client: it watches the traffic it
    receives, detects undesired flows (via {!Detection}), sends filtering
    requests to its gateway — self-policed against its R1 contract — and
    answers the 3-way-handshake queries attacker-side gateways send it.
    It counts no bytes: what reached the host is the world's byte ledger's
    [Delivered] cells ({!Aitf_obs.Ledger}).

    {!Attacker} models the source side: it receives [To_attacker] requests
    and reacts per its {!Policy.attacker_response} — a compliant host
    installs its own outbound filter (the na = R2·T filters of Section
    IV-D), an ignoring host keeps sending, an on-off host pauses just long
    enough to fool a temporary filter. Traffic generators consult the
    agent's {!Attacker.gate} before each packet. *)

open Aitf_net
open Aitf_filter

(** How the victim learns the attack path to put into its requests. *)
type path_source =
  | From_route_record  (** read it from the triggering packet *)
  | From_ppm of Aitf_traceback.Ppm.Collector.t
      (** reconstruct from collected marks; requests wait for convergence *)
  | Gateway_traceback
      (** send an empty path; the gateway runs SPIE itself *)

module Victim : sig
  (** The victim's decisions ({!Aitf_obs.Counters}), registered as
      [victim.<node>.<name>]; all but [Request_sent] are also traced as span
      events on the flow's request. *)
  type counter =
    | Request_sent  (** filtering request sent to the gateway *)
    | Request_suppressed  (** withheld by the local R1 bucket *)
    | Victim_retransmit
        (** resent, with exponential backoff up to [ctrl_retries], because
            the flow kept arriving; charged to the same R1 bucket *)
    | Victim_gave_up  (** retry budget ran out, attack still arriving *)
    | Victim_confirmed  (** handshake verification query confirmed *)

  val counter_name : counter -> string
  val all_counters : counter list

  type t

  val create :
    ?td:float ->
    ?path_source:path_source ->
    gateway:Addr.t ->
    config:Config.t ->
    Network.t ->
    Node.t ->
    t
  (** Attach a victim agent: takes over local delivery (chaining to the
      previous handler for non-AITF, non-data payloads). [td] is the
      first-detection delay Td (default 0.1 s). Default path source is the
      route record. *)

  val node : t -> Node.t

  (* Measurement *)

  val attack_flows_seen : t -> int

  val count : t -> counter -> int
  val counters : t -> counter Aitf_obs.Counters.t
  val requests_sent : t -> int  (** [count t Request_sent] *)

  (* Verifiable-contract hooks (docs/CONTRACTS.md). All unset by default,
     leaving behaviour bit-identical to the pre-contract agent. *)

  val set_signer : t -> (Bytes.t -> int64) -> unit
  (** Sign every outgoing filtering request: the function receives the
      request's canonical wire bytes ({!Wire.signing_bytes}) and returns
      the keyed digest to carry in its [auth] field. *)

  val set_receipt_sink : t -> (Message.receipt -> unit) -> unit
  (** Deliver install receipts (typically to an [Aitf_contract.Auditor]). *)

  val set_request_observer : t -> (Message.request -> unit) -> unit
  (** Observe each fresh (non-retransmitted) filtering request as sent,
      after signing — the auditor uses the path to know which gateway owes
      a receipt. *)

  val set_arrival_observer : t -> (Flow_label.t -> float -> unit) -> unit
  (** Observe every undesired-flow arrival (label, time) — the auditor's
      evidence that a contracted gateway is not actually policing. *)
end

module Attacker : sig
  (** Registered as [attacker.<node>.<name>]; not traced. *)
  type counter =
    | Request_received  (** to-attacker filtering request delivered *)
    | Flow_stopped  (** flow stopped, honestly or on-off *)

  val counter_name : counter -> string

  type t

  val create :
    ?strategy:Policy.attacker_response ->
    ?filter_capacity:int ->
    config:Config.t ->
    Network.t ->
    Node.t ->
    t
  (** Default strategy is {!Policy.Complies}; default filter capacity is
      the config's [filter_capacity]. *)

  val node : t -> Node.t
  val strategy : t -> Policy.attacker_response

  val gate : t -> Packet.t -> bool
  (** [true] when the host's own state permits sending this packet. *)

  val filters : t -> Filter_table.t
  (** The compliant host's outbound filters (peak = measured na). *)

  val count : t -> counter -> int
  val counters : t -> counter Aitf_obs.Counters.t
end
