(** The degree partition of Section 3.1.

    Given thresholds Δ₁ (on the join variable y) and Δ₂ (on the output
    variables x and z), classifies values of the 2-path query
    Q̈(x,z) = R(x,y), S(z,y):

    - y is {e light} iff its degree is ≤ Δ₁ in R {e or} in S (if either
      side is light the witness produces few tuples, and the correctness
      argument of Section 3.1 only needs one side);
    - x (resp. z) is {e heavy} iff its degree in R (resp. S) exceeds Δ₂;
    - the heavy sub-relations R⁺/S⁺ contain the tuples whose both
      endpoints are heavy — exactly the tuples the matrices M₁/M₂
      encode.

    Heavy values that have no heavy counterpart (e.g. a heavy x all of
    whose y's are light) would produce all-zero matrix rows, so they are
    pruned from the matrix dimensions. *)

module Relation = Jp_relation.Relation

type t = {
  d1 : int;
  d2 : int;
  light_y : bool array;  (** indexed by y id over the larger dst space *)
  heavy_x : int array;  (** ascending x ids that occupy matrix rows *)
  heavy_y : int array;  (** ascending heavy y ids (matrix inner dim) *)
  heavy_z : int array;  (** ascending z ids that occupy matrix columns *)
  x_index : int array;  (** x id → row index, or -1 *)
  y_index : int array;  (** y id → inner index, or -1 *)
  z_index : int array;  (** z id → column index, or -1 *)
}

val make :
  ?cancel:Jp_util.Cancel.t ->
  r:Relation.t ->
  s:Relation.t ->
  d1:int ->
  d2:int ->
  unit ->
  t
(** [cancel] is checked once at entry — the partition scan is a single
    O(N) phase.  [d2 = 0] makes y the only partitioned variable: every
    endpoint adjacent to a heavy y joins the matrices (the exact-count
    split of [Two_path.project_counts]).  Raises [Invalid_argument]
    when [d1 < 1] or [d2 < 0]. *)

val is_light_y : t -> int -> bool
(** Total over the y id space (ids beyond both relations are light: they
    have no tuples at all). *)

val dims : t -> int * int * int
(** [(|heavy_x|, |heavy_y|, |heavy_z|)]: the dimensions u, v, w of the
    heavy matrices (R⁺ is u×v, S⁺ is v×w, their product u×w). *)
