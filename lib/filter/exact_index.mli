(** Exact host-pair labels indexed by an int key.

    The classifier's fast path ({!Filter_table}, {!Shadow_cache}) keeps its
    exact labels — both endpoints {!Flow_label.Host}, no port qualifiers,
    with or without [proto] — here. A probe mixes the packet's header
    source and destination into one int and hashes that, so it builds no
    label and allocates nothing on a miss. Distinct address pairs can share
    a key; each bucket keeps its labels and a probe compares them
    exactly. *)

open Aitf_net

type 'a t

val create : int -> 'a t
(** [create n] is an empty index sized for about [n] keys. *)

val key : Addr.t -> Addr.t -> int
(** [key src dst] is the int the pair [src -> dst] is filed under. The
    pairs [(s, d)] and [(s xor 1, d xor 0x80000000)] share one. *)

val replace : 'a t -> Flow_label.t -> 'a -> unit
(** File [v] under the label, replacing any value filed under an equal
    label. @raise Invalid_argument unless {!Flow_label.is_exact}. *)

val remove : 'a t -> Flow_label.t -> unit
(** Drop the value filed under an equal label, if any. *)

val find : 'a t -> src:int -> dst:int -> proto:int -> 'a option
(** The value filed under [src -> dst] with no [proto] qualifier, else the
    one filed under that pair with this [proto]. The addresses are given
    as unsigned ints ([0 .. 0xFFFF_FFFF]), so a caller walking an address
    range builds no [Addr.t]. Allocates nothing unless it finds one. *)

val probe : 'a t -> Packet.t -> 'a option
(** {!find} on the packet's header [src], [dst] and [proto]. *)

val length : 'a t -> int
(** The number of labels filed. *)

val fold : (Flow_label.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over every filed label and its value, in bucket order. *)
