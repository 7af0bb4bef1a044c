(** Zipf-distributed sampling over a finite domain.

    Real set-valued datasets (DBLP author lists, bag-of-words documents,
    protein interaction lists) have power-law element frequencies; the
    workload generators use this sampler to reproduce the degree skew that
    drives the paper's light/heavy partitioning. *)

type t

val create : ?exponent:float -> int -> t
(** [create ~exponent n] prepares an inverse-CDF sampler over
    [\[0, n)] with P(i) ∝ 1/(i+1)^exponent.  Default exponent 1.0.
    O(n) build, O(log n) per sample. *)

val sample : t -> Jp_util.Rng.t -> int
