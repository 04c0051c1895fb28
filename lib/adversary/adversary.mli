(** Adversary playbooks: seeded attacks on the AITF protocol itself.

    The paper's Section III argues AITF stays useful when the protocol —
    not just the victim's link — is the target. These playbooks reproduce
    that adversary: each one aims at a different piece of protocol state,
    draws randomness only from the seeded [Aitf_engine.Rng] it is launched
    with (identical seeds replay bit-identically), and counts what it did
    ({!counter}), exported under ["adversary.<kind>.<name>"].

    - {b slot-exhaustion}: a botnet rotating [sources] spoofed header
      sources at [rate] bits/s towards the victim, forcing one temporary
      filter per pool member — pressure on the nv = R1·Ttmp slot budget.
      The {!Aitf_filter.Overload} manager is the countermeasure.
    - {b shadow-exhaustion}: a compromised client in the victim's cone
      requesting filters for [flows] distinct nonexistent flows, filling
      the gateway's DRAM shadow (mv = R1·T entries, TTL = T each).
    - {b request-flood}: the same client at full blast with
      ever-fresh flows — burns its own R1 contract; the policer holds the
      damage to R1 admitted requests per second.
    - {b reply-replay}: a compromised on-path router replaying snooped
      verification replies after [delay] and firing guessed nonces at
      [guess_rate]; the handshake's nonce table classifies them as
      duplicates and bogus respectively.
    - {b route-forgery}: a compromised legacy router rewriting the route
      record on attack packets to an [innocent] address; round 0 is wasted
      on it, escalation recovers along the honest stamps.
    - {b lying-filter-node}: a Byzantine contracted gateway that accepts
      filtering requests and then cheats — silently ([Accept_ignore]),
      by rate-limiting instead of blocking ([Partial leak]), by
      fabricating receipts without key material ([Forge]), or by replaying
      its first genuine receipt forever ([Replay]). Unlike the other
      playbooks it has no traffic loop of its own: {!corrupt} flips the
      {!Aitf_core.Gateway.contract_behavior} of a [fraction] of on-path
      gateways at scenario setup, and the victim-side
      [Aitf_contract.Auditor] is the countermeasure (docs/CONTRACTS.md). *)

open Aitf_net
open Aitf_core

(** How a lying filter node cheats on its contract. *)
type lying_mode =
  | Accept_ignore
  | Partial of float  (** residual leak, bytes/s *)
  | Forge
  | Replay

type playbook =
  | Slot_exhaustion of { sources : int; rate : float }  (** rate in bits/s *)
  | Shadow_exhaustion of { flows : int; rate : float }
      (** rate in requests/s *)
  | Request_flood of { rate : float }  (** requests/s *)
  | Reply_replay of { delay : float; guess_rate : float }
  | Route_forgery of { innocent : Addr.t }
  | Lying_filter_node of { mode : lying_mode; fraction : float }
      (** [fraction] of on-path gateways corrupted, in [0,1] *)

type env = {
  net : Network.t;
  attacker : Node.t;  (** data-plane bot (slot exhaustion) *)
  insider : Node.t;  (** compromised client inside the victim's cone *)
  tap : Node.t;  (** compromised on-path router (replay/forgery) *)
  victim : Addr.t;
  victim_gw : Addr.t;  (** the gateway the insider's requests go to *)
  spoof_base : Addr.t;  (** base of the spoofed-source pool *)
}

(** What a launched playbook did ({!Aitf_obs.Counters}); not traced. *)
type counter =
  | Packet_sent  (** attack data packet emitted *)
  | Request_sent  (** forged or abusive filtering request emitted *)
  | Replay_sent  (** snooped verification reply replayed *)
  | Guess_sent  (** verification reply sent with a guessed nonce *)
  | Stamp_forged  (** attack packet whose route record was rewritten *)

val counter_name : counter -> string  (** e.g. ["packet-sent"] *)

type t

val launch : ?start:float -> rng:Aitf_engine.Rng.t -> env -> playbook -> t
(** Start the playbook at virtual time [start] (default 1.0 s). All
    randomness comes from [rng]; callers should pass a dedicated
    [Rng.split] so launching an adversary does not perturb other streams.
    Raises [Invalid_argument] for {!Lying_filter_node}, which corrupts
    gateways at scenario setup via {!corrupt} instead. *)

val corrupt : mode:lying_mode -> Gateway.t list -> int
(** Flip the contract behaviour of each gateway to the lying [mode]
    (they must have contracts enabled). Returns how many were corrupted.
    The caller decides {e which} gateways — e.g. a seeded
    [byzantine-fraction] pick of the on-path ASes. *)

val playbook : t -> playbook

val count : t -> counter -> int
val counters : t -> counter Aitf_obs.Counters.t

val kind : playbook -> string

val playbook_of_string : string -> (playbook, string) result
(** Parse a CLI spec: ["<name>[:key=val,...]"], e.g.
    ["slot-exhaustion:sources=128,rate=2e6"] or ["route-forgery"]. Unknown
    names or keys are reported, not ignored. *)

val playbook_to_string : playbook -> string
(** Inverse of {!playbook_of_string} (canonical form). *)
