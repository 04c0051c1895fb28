(** AITF protocol messages.

    The protocol has one main message — the filtering request — plus the
    verification query/reply pair of the 3-way handshake (Section II-E).
    Messages ride as packet payloads via the extensible payload variant, so
    the network layer needs no knowledge of AITF. *)

open Aitf_net
open Aitf_filter

type target =
  | To_victim_gateway
  | To_attacker_gateway
  | To_attacker
      (** The type field of the paper: whom the request is addressed to. *)

type request = {
  flow : Flow_label.t;  (** the undesired flow to block *)
  target : target;
  duration : float;  (** T — how long to block, seconds *)
  path : Addr.t list;
      (** attack path (AITF border routers), attacker-side first; empty when
          the receiving gateway must run traceback itself *)
  hops : int;  (** escalation round: which path entry to contact *)
  requestor : Addr.t;  (** who originated this round's request *)
  corr : int;
      (** correlation id minted at the victim ({!Aitf_obs.Span.mint}) and
          carried through every round of the exchange, so causal tracing
          can stitch the distributed stages into one span tree; [0] means
          untraceable (legacy or forged requests). Never consulted by
          protocol logic. *)
  auth : int64;
      (** keyed digest of the request's canonical wire bytes under the
          requestor's key ([Aitf_contract.Signing]); [0L] means unsigned
          (legacy). Only consulted when the receiving gateway has the
          verifiable-contract layer enabled. *)
}

type receipt = {
  rc_flow : Flow_label.t;  (** the flow the gateway claims to police *)
  rc_gateway : Addr.t;  (** the contracted gateway issuing the receipt *)
  rc_victim : Addr.t;  (** whom the receipt is owed to (the flow's dst) *)
  rc_seq : int;
      (** per-gateway monotonically increasing sequence number; a replayed
          receipt re-uses an old value and is caught by the auditor exactly
          like a replayed handshake reply *)
  rc_installed_at : float;  (** when the filter was installed (claim) *)
  rc_expires_at : float;  (** when the filter will lapse (claim) *)
  rc_hits : int;  (** packets the filter has blocked so far (claim) *)
  rc_auth : int64;  (** keyed digest under the issuing gateway's key *)
}
(** Install receipt (docs/CONTRACTS.md): proof-of-policing a contracted
    gateway returns when it installs a filter, then refreshes periodically
    while the filter is resident. The victim-side auditor cross-checks the
    claims against observed arrivals. *)

type Packet.payload +=
  | Filtering_request of request
  | Verification_query of { flow : Flow_label.t; nonce : int64 }
  | Verification_reply of { flow : Flow_label.t; nonce : int64 }
  | Install_receipt of receipt

val message_size : int
(** Wire size (bytes) charged for every AITF message. *)

val protocol_number : int
(** The protocol field value of AITF packets. *)

val packet : src:Addr.t -> dst:Addr.t -> Packet.payload -> Packet.t
(** Wrap a payload in a correctly-sized AITF packet. *)
