(** Degree-distribution indexes of Section 5.

    The cost-based optimizer (Algorithm 3) probes, for an arbitrary degree
    threshold δ, how many values are heavy (degree > δ) and the summed
    weight of the light ones (degree ≤ δ) — the expansion work or tuple
    mass that stays on the combinatorial side.

    Both are answered in O(log n) by binary search over the active value
    ids ordered by degree, with a prefix sum of one weight per value.  The
    ordering is a stable counting sort, O(n + max degree), and
    {!reweight} lets several weights share one ordering.  Only values of
    nonzero degree participate (the paper's preprocessing removes
    non-contributing tuples first). *)

type t

val of_degrees : ?weights:int array -> int array -> t
(** [of_degrees ~weights deg] builds the index over all ids [v] with
    [deg.(v) > 0].  [weights] (same length) feeds {!weight_le}; it defaults
    to the degrees themselves.  Raises [Invalid_argument] on a length
    mismatch. *)

val reweight : t -> int array -> t
(** [reweight t weights] is [of_degrees ~weights deg] for the [deg] that
    [t] was built from, sharing [t]'s ordering: O(active values), no sort.
    Raises [Invalid_argument] on a length mismatch. *)

val max_degree : t -> int
(** Largest degree (0 when no value is active). *)

val count_gt : t -> int -> int
(** [count_gt t d] = #{v active | deg v > d}: the number of heavy values
    for threshold [d]. *)

val weight_le : t -> int -> int
(** Σ weights(v) over active v with deg v ≤ d — the index [cdf_x(y_δ)]
    when [weights] carries the other relation's degrees. *)
