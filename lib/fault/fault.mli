(** Composable link fault injection.

    AITF's control messages cross the same congested, failure-prone links
    as the flood they are trying to stop (Sections II–III), so every
    robustness claim needs a way to make links misbehave {e on demand} and
    {e reproducibly}. This module wraps a {!Aitf_net.Link}'s delivery seam
    ({!Aitf_net.Link.wrap_deliver}) with a stack of fault models applied to
    each packet after serialisation and propagation, just before receipt:

    - {!Loss} — i.i.d. Bernoulli packet loss;
    - {!Burst_loss} — a two-state Gilbert–Elliott channel (good/bad states
      with per-state loss probabilities), for correlated loss bursts;
    - {!Jitter} — uniform extra delivery delay in [0, max], which can
      reorder packets;
    - {!Duplicate} — Bernoulli duplication (the copy arrives together with
      the original).

    Models are applied in list order; the first loss verdict wins. All
    randomness is drawn from the caller-supplied {!Aitf_engine.Rng}, so a
    seeded run replays bit-identically. Separately, {!flap} takes links
    down on a fixed schedule — the deterministic counterpart for outage
    testing.

    Injected drops happen {e after} the link's own accounting (the wire was
    genuinely occupied), and are counted by the injector ({!counter}), not
    the link. *)

open Aitf_net

type model =
  | Loss of float  (** i.i.d. drop probability *)
  | Burst_loss of {
      p_enter : float;  (** good → bad transition probability per packet *)
      p_exit : float;  (** bad → good transition probability per packet *)
      loss_good : float;  (** drop probability in the good state *)
      loss_bad : float;  (** drop probability in the bad state *)
    }
  | Jitter of { max_jitter : float }
      (** uniform extra delay in [0, max_jitter] seconds *)
  | Duplicate of float  (** probability of delivering one extra copy *)

val burst :
  ?loss_good:float -> ?loss_bad:float -> p_enter:float -> p_exit:float ->
  unit -> model
(** Gilbert–Elliott convenience constructor; defaults [loss_good = 0.],
    [loss_bad = 1.] (the classic on/off burst channel). The stationary loss
    rate is [p_enter / (p_enter + p_exit) * loss_bad] (plus the good-state
    term). *)

val ctrl_only : Packet.t -> bool
(** Predicate selecting control-plane packets (anything that is not plain
    data) — the usual [?only] argument when attacking the protocol rather
    than the traffic. *)

(** What an injector or a flapper did ({!Aitf_obs.Counters}). A dropped
    control message is also traced as a span event of its counter's name
    on its request: by correlation id, or through the handshake nonce. *)
type counter =
  | Dropped_request  (** filtering request discarded *)
  | Dropped_query  (** verification query discarded *)
  | Dropped_reply  (** verification reply discarded *)
  | Dropped_other  (** any other packet discarded (data, receipts) *)
  | Duplicated  (** extra copy created by the duplication model *)
  | Delayed  (** delivery postponed by the jitter model *)
  | Flap  (** link-down episode begun: a {!flapper}'s only counter *)

val counter_name : counter -> string
(** ["fault-dropped-request"], ..., ["fault-flap"]. *)

type t
(** One injector, bound to one link. *)

val inject :
  ?only:(Packet.t -> bool) ->
  rng:Aitf_engine.Rng.t ->
  Aitf_engine.Sim.t ->
  Link.t ->
  model list ->
  t
(** Interpose [models] on the link's delivery path. Packets failing [only]
    (default: all pass) bypass the models entirely. Registers
    [fault.<link>.<name>] for every counter but [Flap] when a metrics
    registry is attached.
    @raise Invalid_argument on a probability outside [0,1], negative
    jitter, or a link with no deliver callback installed yet. *)

val count : t -> counter -> int
val counters : t -> counter Aitf_obs.Counters.t

val drops : t -> int  (** the four [Dropped_*] counts *)

val in_bad_state : t -> bool
(** Current Gilbert–Elliott channel state (meaningful only with a
    {!Burst_loss} model present). *)

(** {1 Scheduled link flaps} *)

type flapper

val flap :
  ?start:float ->
  Aitf_engine.Sim.t ->
  Link.t list ->
  period:float ->
  down_for:float ->
  flapper
(** Every [period] seconds starting at [start], take all [links] down for
    [down_for] seconds (e.g. both directions of a circuit). Registers
    [fault.<first link>.fault-flap] when a registry is attached.
    @raise Invalid_argument unless [period > down_for]. *)

val stop_flapping : flapper -> unit
(** Cancel the schedule and restore the links up. *)

val flapper_count : flapper -> counter -> int
(** Down episodes begun so far under [Flap]; 0 for every other counter. *)
