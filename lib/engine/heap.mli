(** Resizable-array binary min-heap.

    The heap is parameterised by an explicit comparison function supplied at
    creation time, for priority workloads off the per-event path (Dijkstra
    in [Network.shortest_paths]); the simulator's event queue is its own
    structure ({!Event_queue}). All operations are imperative; [pop] and
    [peek] never observe elements out of order with respect to the
    comparison. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest element at the
    top). *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** [push h x] inserts [x]. Amortised O(log n). *)

val peek : 'a t -> 'a option
(** [peek h] is the minimum element without removing it. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the minimum element. O(log n). *)

val clear : 'a t -> unit
(** Remove every element. The backing store is released. *)

val to_list : 'a t -> 'a list
(** Elements in unspecified order (heap order of the backing array). *)
