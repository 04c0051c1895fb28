(** Longest-prefix-match routing table.

    One hash table of bound prefixes, keyed by (base masked to its length,
    length) under {!Addr.mix}, plus the prefix lengths present, longest
    first. A lookup probes those lengths in turn and returns the first hit:
    a router that holds two to four distinct lengths answers in two to four
    probes. Used both for forwarding tables and for "is this address inside
    my network" checks. *)

type 'a t

val create : unit -> 'a t

val insert : 'a t -> Addr.prefix -> 'a -> unit
(** Bind [prefix] to a value, replacing any previous binding of the exact
    same prefix. *)

val remove : 'a t -> Addr.prefix -> unit
(** Remove the binding of exactly this prefix, if any. A length left with
    no prefix is no longer probed. *)

val lookup : 'a t -> Addr.t -> 'a option
(** Longest matching prefix's value, or [None] — the forwarding fast path.
    It allocates nothing (a hit returns the [Some] built at insert) and
    writes nothing, so several domains may look up one table at once. *)

val lookup_prefix : 'a t -> Addr.t -> (Addr.prefix * 'a) option
(** Like {!lookup} but also returns the matching prefix. *)

val exact : 'a t -> Addr.prefix -> 'a option
(** Value bound to exactly this prefix. *)

val size : 'a t -> int
(** Number of bound prefixes. *)

val invariant : 'a t -> bool
(** Structural health check: [size] equals the number of entries, the
    per-length counts (and the lengths probed) match the entries, and every
    entry sits in the slot its key selects. *)

val clear : 'a t -> unit
(** Remove every binding. *)

val iter : 'a t -> (Addr.prefix -> 'a -> unit) -> unit
(** Visit all bindings (order unspecified). *)
