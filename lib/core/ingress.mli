(** Ingress/egress anti-spoofing filters.

    Section III-A argues AITF gives providers an economic incentive to
    deploy ingress filtering: "if a provider pro-actively prevents spoofed
    flows from exiting its network, it lowers the probability of an attack
    being launched from its own network, thus reducing the number of
    expected filtering requests it will later have to satisfy".

    Two directions on a border router, both defined by the AS's customer
    cone:
    - {e egress} filtering drops packets leaving the network whose claimed
      source is not inside the cone (the classic BCP 38 check);
    - {e ingress} filtering drops packets arriving from outside that claim
      a source inside the cone (nobody outside is us).

    Direction is inferred from the packet's last hop: a previous hop inside
    the cone means the packet is on its way out. *)

open Aitf_net

type t

val install :
  ?egress:bool -> ?ingress:bool -> Network.t -> Node.t ->
  cone:Addr.prefix list -> t
(** Attach the checks (both enabled by default) to a border router. Drops
    are accounted on the node under ["egress-spoof"] / ["ingress-spoof"]. *)

val egress_drops : t -> int
(** The node's [Egress_spoof] drop count ({!Aitf_net.Node.drop_count}). *)

val ingress_drops : t -> int
(** The node's [Ingress_spoof] drop count. *)

val spoofed_exits_prevented : t -> int
(** Alias of {!egress_drops} — the quantity Section III-A's incentive
    argument is about. *)
