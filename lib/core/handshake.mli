(** Nonce bookkeeping for the 3-way handshake (Section II-E), with
    loss-tolerant retransmission.

    The attacker's gateway, before acting on a filtering request for a flow
    A → V, sends V a {!Message.Verification_query} carrying a fresh random
    nonce; only a {!Message.Verification_reply} echoing both the flow label
    and the nonce within the timeout counts as verification. An off-path
    forger never observes the nonce, so it cannot fabricate the reply.

    The query and its reply cross the congested links the protocol is
    trying to relieve, so a single transmission can silently vanish. This
    module therefore owns the (re)transmission schedule: {!start} takes a
    [send] callback, fires it immediately, and — when created with
    [retries > 0] — again on every timeout with exponential backoff, before
    declaring failure exactly once. Receipt is idempotent: a replayed reply
    to an already-verified nonce is classified a duplicate and changes
    nothing. The module counts nothing: its caller counts the outcomes
    ([on_result]) and the reply classes ({!reply}). *)

open Aitf_filter

type t

val create :
  ?retries:int -> Aitf_engine.Sim.t -> Aitf_engine.Rng.t -> timeout:float -> t
(** [timeout] is the per-attempt wait; [retries] (default 0: single-shot)
    bounds retransmissions beyond the first send; each retry multiplies the
    wait by {!Config.ctrl_backoff}.
    @raise Invalid_argument if [retries < 0]. *)

val start :
  t ->
  flow:Flow_label.t ->
  send:(int64 -> unit) ->
  on_result:(bool -> unit) ->
  int64
(** Begin a verification; calls [send nonce] for the initial query and for
    every retransmission, and returns the nonce. [on_result true] fires
    when a matching reply arrives in time, [on_result false] when the last
    attempt times out — exactly one of the two, exactly once. Concurrent
    verifications of the same flow are independent (distinct nonces). *)

(** What a received reply was. *)
type reply =
  | Verified  (** completed a pending verification ([on_result true]) *)
  | Duplicate  (** replay for a nonce that already verified, same flow *)
  | Bogus  (** unknown nonce or mismatched flow label *)

val handle_reply : t -> flow:Flow_label.t -> nonce:int64 -> reply
(** Feed a received reply; completes the matching pending verification, if
    any. Duplicates and bogus replies change nothing and consume no pending
    entry. *)

val pending : t -> int
(** Verifications still awaiting a reply. *)
