(** Protecting legacy (non-AITF) hosts.

    An AITF network "has a filtering contract with each of its end-hosts" —
    but a deployment will always contain hosts that speak no AITF. This
    module lets their gateway stand in for them:

    - it watches transit traffic towards the protected prefixes and runs
      the same detection a victim host would (scenario ground truth plus a
      Td delay, instant re-detection of logged labels);
    - it originates the filtering requests itself, self-policed to the
      contract rate;
    - being on the path, it legitimately answers the 3-way-handshake
      queries that attacker-side gateways address to the silent legacy
      victim (Section II-E's verification only proves the confirmer is
      on-path, which the gateway is), and consumes those queries so they
      never confuse the host.

    Attach it to the same border router as the {!Gateway}. *)

open Aitf_net

type t

val attach :
  ?td:float ->
  protect:Addr.prefix list ->
  gateway:Gateway.t ->
  Network.t ->
  t
(** Watch traffic through the gateway's node towards [protect] and defend
    it. [td] is the first-detection delay (default 0.1 s). *)

val count : t -> Host_agent.Victim.counter -> int
(** The proxy takes the victim's decisions ([Request_sent],
    [Victim_confirmed]), so it counts them under the victim's names,
    registered as [legacy.<gateway node>.<name>]; not traced. *)

val counters : t -> Host_agent.Victim.counter Aitf_obs.Counters.t
val flows_detected : t -> int

val protects : t -> Addr.t -> bool
(** Is this destination covered? *)
