(** Trace-driven attack replay.

    A replay trace is a compact, human-writable description of how an
    attack's source population behaves over time: named pools of
    contiguous spoofed sources, plus timestamped membership events —
    whole-pool on/off pulses, per-source join/leave churn. The same trace
    drives {e both} engines: under [`Packet] each pool is a spoofing CBR
    source gated by the pool's live membership; under [`Hybrid] each pool
    is one fluid aggregate whose per-source stage-0 gates track the
    membership. Everything downstream — detection, filtering requests,
    filters, escalation — is the unchanged AITF machinery, so a trace is
    a differential test vector between the engines.

    Traces capture the attack shapes the companion "Protecting
    Public-Access Sites" work studies and a parametric flood cannot
    express: pulsing on-off attacks, booter-style bursts, carpet bombing
    walking a prefix range, and source churn. {!synth_pulse} and friends
    generate those canonically from a seed.

    See docs/GOLDENS.md for the trace grammar. *)

open Aitf_net
open Aitf_core
module Series = Aitf_stats.Series

(** {1 Traces} *)

type pool = {
  p_id : string;  (** token naming the pool in events (no whitespace) *)
  p_base : Addr.t;  (** first source address of the contiguous range *)
  p_n : int;  (** pool population (>= 1) *)
  p_rate : float;  (** bits/s {e per source} while a member is active *)
  p_attack : bool;
}

type action =
  | On  (** the pool starts sending (membership unchanged) *)
  | Off  (** the pool stops sending *)
  | Join of int  (** [k] sources join (clamped to the population) *)
  | Leave of int  (** [k] sources leave (clamped to 0) *)

type event = { ev_time : float; ev_pool : string; ev_action : action }

type trace = {
  tr_seed : int;  (** baked into the header: the synthesizer's seed *)
  tr_duration : float;  (** simulated horizon (s) *)
  tr_pools : pool list;
  tr_events : event list;  (** non-decreasing [ev_time], file order kept *)
}

val equal : trace -> trace -> bool

(** {1 Codec}

    Line-oriented text; [to_string] is canonical (fixed field order,
    floats via {!Aitf_obs.Json.float_repr}) so
    [parse (to_string t) = Ok t] and serializing again is byte-identical
    — the round-trip property the tier-1 suite checks. *)

val to_string : trace -> string

val parse : string -> (trace, string) result
(** Errors carry the 1-based line number and the offending token.
    Rejected: unknown directives, missing/duplicate header fields,
    malformed numbers (anything [int_of_string]/[float_of_string] won't
    take, plus non-finite or negative rates/times), pools of more than
    2^20 sources or whose range runs past 255.255.255.255, events naming
    an undeclared pool, and decreasing timestamps. *)

(** {1 Synthesizers}

    Deterministic in [seed]; all rates in bits/s. *)

val synth_pulse :
  ?pools:int -> ?period:float -> ?duty:float -> seed:int -> duration:float ->
  rate:float -> n:int -> unit -> trace
(** Pulsing on-off attack: [pools] pools (default 1) of [n] sources each
    square-wave between full rate and silence with the given [period]
    (default 4 s) and [duty] cycle (default 0.5), phases staggered by the
    seed — the shrew-style shape that defeats a detector averaging over
    windows longer than the pulse. *)

val synth_churn :
  ?mean_gap:float -> seed:int -> duration:float -> rate:float -> n:int ->
  unit -> trace
(** Source arrival/departure churn: one always-on pool whose membership
    random-walks — every [mean_gap] seconds (exponential, default 0.5 s)
    a random cohort joins or leaves. *)

val synth_booter :
  ?bursts:int -> ?burst_len:float -> seed:int -> duration:float ->
  rate:float -> n:int -> unit -> trace
(** Booter-service bursts: [bursts] (default 4) short all-on salvos of
    [burst_len] seconds (default 2 s) at seeded start times, silence in
    between — the stresser-for-hire shape. *)

val synth_carpet :
  ?pools:int -> ?slot:float -> seed:int -> duration:float -> rate:float ->
  n:int -> unit -> trace
(** Carpet bombing: [pools] pools (default 4) covering adjacent prefix
    ranges; the attack walks across them, each on for [slot] seconds
    (default 3 s) then handing over to the next, in a seeded starting
    order — filters chase a moving source prefix. *)

(** {1 Running} *)

type result = {
  rr_attack_offered_bytes : float;
      (** analytic integral of the trace's active attack rate *)
  rr_attack_received_bytes : float;
  rr_good_offered_bytes : float;
  rr_good_received_bytes : float;
  rr_requests_sent : int;  (** by the victim host *)
  rr_filters : int;  (** temp + long installs over every gateway *)
  rr_absorbed : int;  (** To_attacker requests absorbed at pool nodes *)
  rr_events : int;  (** discrete events executed *)
  rr_victim_rate : Series.t;
      (** windowed attack bandwidth (bits/s) at the victim, identical
          smoothing under both engines *)
  rr_ledger : Aitf_obs.Ledger.t;  (** the run's byte ledger *)
}

val offered_bytes : trace -> attack:bool -> float
(** The analytic integral: sum over pools (matching [attack]) of
    per-source rate x live membership, integrated over the horizon. *)

val run :
  ?spec:Aitf_topo.Chain.spec ->
  ?config:Config.t ->
  ?td:float ->
  ?sample_period:float ->
  trace ->
  result
(** Replay [trace] on the Figure-1 chain augmented with one origin node
    per pool (each advertising the smallest prefix covering its source
    range, requests into it absorbed) under [config]'s [engine].
    Deterministic: same trace, same config, same result — bit-identical
    serialized reports.

    @raise Invalid_argument when {!check} fails. *)

val check : trace -> (unit, string) Stdlib.result
(** [Error] when a pool could not be placed: more than 2^20 sources, or a
    source range past 255.255.255.255 ({!parse} rejects both). *)
