(** Flow labels: the wildcardable traffic descriptions filters act on.

    The paper defines a flow label as "a set of values that captures the
    common characteristics of a traffic flow — e.g. all packets with IP
    source address S and IP destination address D", with wildcarding. A
    label selects on source, destination (each an exact host, a prefix, or
    anything) and optionally the protocol. *)

open Aitf_net

type sel =
  | Any
  | Host of Addr.t
  | Net of Addr.prefix

type t = {
  src : sel;
  dst : sel;
  proto : int option;
  sport : int option;
  dport : int option;
}

val v : ?proto:int -> ?sport:int -> ?dport:int -> sel -> sel -> t
(** [v src dst] builds a label; omitted qualifiers mean "any". *)

val host_pair : Addr.t -> Addr.t -> t
(** The most common AITF label: exact source to exact destination, any
    protocol. *)

val from_net : Addr.prefix -> Addr.t -> t
(** All traffic from a prefix to one destination host. *)

val from_host : Addr.t -> t
(** All traffic from one source, any destination — used for disconnection
    blocklists. *)

val sel_matches : sel -> Addr.t -> bool
(** Does the address fall under the selector? *)

val matches : t -> Packet.t -> bool
(** Does the packet fall under the label? Compares against the {e header}
    source, so spoofed packets match labels naming the spoofed address. *)

val subsumes : t -> t -> bool
(** [subsumes a b] is [true] when every packet matching [b] also matches
    [a]. *)

val specificity : t -> int
(** How narrow the label is: the sum of the mask lengths of both selectors
    ([Any] = 0, a prefix its length, a host 32) plus one per qualifier
    present. If [subsumes a b] and [not (equal a b)] then
    [specificity a <= specificity b]; higher = narrower. Used to order
    wildcard scans most-specific-first. *)

val is_exact : t -> bool
(** Both endpoints are exact hosts and no port qualifiers — the cheap,
    hashable case (a protocol qualifier is still allowed: the fast path
    probes it explicitly). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> t
(** Parse the {!to_string} syntax:
    ["<sel> -> <sel> [proto=N] [sport=N] [dport=N]"] where a selector is
    ["*"], a dotted address, or ["a.b.c.d/len"].
    @raise Invalid_argument on malformed input. *)
