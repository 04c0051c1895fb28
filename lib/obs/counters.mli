(** A typed decision-counter set: one count and one name per decision.

    An agent declares its decisions as a variant of constant constructors,
    a kebab-case name per constructor and the constructor list. The set
    counts each decision, traces it as a span event under the same name
    when given the request's correlation id, and registers every counter
    as the metric [<prefix>.<name c>] in one loop, so the
    [--stats] table, the span event and the metric share one spelling.
    Counting allocates nothing. *)

type 'c t

val create :
  ?node:string -> ?prefix:string -> name:('c -> string) -> all:'c list ->
  Aitf_engine.Sim.t -> 'c t
(** [node] scopes {!bump}'s span events to that node's open spans. Given
    [prefix], {!register} the set with the world's registry, if any. *)

val name : 'c t -> 'c -> string
val all : 'c t -> 'c list

val count : 'c t -> 'c -> int
(** 0 for a counter not in [all]. *)

val sum : 'c t -> 'c list -> int

val bump : ?corr:int -> 'c t -> 'c -> unit
(** Count once; given [corr], record the event on the request's newest
    open span (or its root).
    @raise Invalid_argument if the counter is not in [all]. *)

val bump_root : ?corr:int -> 'c t -> 'c -> unit
(** Count once; given [corr], record the event on the request's root. *)

val bump_nonce : 'c t -> nonce:int64 -> 'c -> unit
(** Count once and record the event on the request the handshake nonce is
    bound to ({!Span.event_by_nonce}). *)

val register : 'c t -> Metrics.t -> prefix:string -> unit
(** Register [<prefix>.<name c>] for every counter, in decisions. *)
