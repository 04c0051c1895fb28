(** Descriptive statistics over float samples. *)

type t = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val of_list : float list -> t
(** Zeros everywhere for an empty input. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [0, 1]; nearest-rank on a sorted
    array. @raise Invalid_argument on empty input or q outside [0, 1]. *)

val pp : Format.formatter -> t -> unit
