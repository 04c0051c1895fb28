(** IPv4-style 32-bit addresses and prefixes.

    Addresses are plain [int32]s in network order semantics (bit 31 is the
    most significant, first octet). Prefixes pair a base address with a mask
    length and are normalised on construction (host bits cleared), so two
    prefixes covering the same range are structurally equal. *)

type t = int32

val compare : t -> t -> int
val equal : t -> t -> bool

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d]. Each octet must be in
    [\[0, 255\]]. *)

val of_string : string -> t
(** Parse dotted-quad notation. @raise Invalid_argument on bad syntax. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val succ : t -> t
(** Next address in numeric order (wraps at the top of the space). *)

val add : t -> int -> t
(** [add a n] offsets [a] by [n] addresses. *)

val to_unsigned : t -> int
(** The address as an unsigned int in [0 .. 0xFFFF_FFFF], so that
    numeric order is address order. *)

val mix : int -> int
(** MurmurHash3's 64-bit finaliser, for hash tables keyed by unsigned
    addresses: a fixed function, so every run lays a table out the same
    way. *)

val bit : t -> int -> bool
(** [bit a i] is bit [i] of [a], where bit 0 is the most significant.
    [i] must be in [0, 31]. *)

type prefix = private { base : t; len : int }

val prefix : t -> int -> prefix
(** [prefix base len] normalises [base] to its first [len] bits.
    @raise Invalid_argument unless [0 <= len <= 32]. *)

val prefix_of_string : string -> prefix
(** Parse ["a.b.c.d/len"]. *)

val prefix_to_string : prefix -> string

val prefix_mem : prefix -> t -> bool
(** [prefix_mem p a] is [true] iff [a] falls inside [p]. *)

val prefix_compare : prefix -> prefix -> int

val host_prefix : t -> prefix
(** The /32 prefix containing exactly one address. *)
