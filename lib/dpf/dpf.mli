(** DPF: route-based distributed packet filtering ([PL01]).

    Park & Lee's proactive spoofing defense, which the paper positions as
    complementary to AITF ("DPF is proactive, whereas AITF is reactive").
    A DPF router checks every transit packet against routing feasibility:
    traffic claiming source S must arrive on the interface this router
    would itself use towards S (with symmetric shortest-path routing, the
    reverse-path-forwarding check). Spoofed packets whose claimed source
    lives elsewhere in the topology fail the check and die before reaching
    the victim.

    Two modes:
    - {e strict}: drop unless the arrival interface matches the reverse
      route exactly — maximal filtering, safe on tree-like or
      shortest-path-symmetric topologies;
    - {e loose}: drop only when the claimed source has no route at all
      (bogon filtering). *)

open Aitf_net

type mode = Strict | Loose

type t

val install : ?mode:mode -> Network.t -> Node.t -> t
(** Attach the feasibility check (default {!Strict}) to a router. Drops are
    accounted on the node under ["dpf-spoof"]. Must be installed after
    {!Network.compute_routes}. *)

val deploy : ?mode:mode -> Network.t -> Node.t list -> t list
(** Install on many routers at once. *)

val checked : t -> int
(** Packets inspected. *)

val dropped : t -> int
(** Packets rejected as infeasible: the node's [Dpf_spoof] drop count
    ({!Aitf_net.Node.drop_count}). *)
