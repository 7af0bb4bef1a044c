(** Output-size estimation for Q̈(x,z) = R(x,y), S(z,y) (Section 5).

    The paper sandwiches the projected output size:
    max(|dom(x)|, (|OUT{_⋈}|/N)²) ≤ |OUT| ≤ min(|dom(x)|·|dom(z)|, |OUT{_⋈}|)
    and estimates |OUT| as the geometric mean of the two bounds.  All
    quantities are computable in linear time from the relation indexes. *)

module Relation = Jp_relation.Relation

type summary = {
  n : int;  (** max(|R|, |S|) *)
  dom_x : int;  (** x values with at least one tuple in R *)
  dom_z : int;  (** z values with at least one tuple in S *)
  join_size : int;
      (** |OUT{_⋈}| = Σ{_y} deg{_R}(y)·deg{_S}(y), the full 2-path join
          size *)
}
(** Everything {!estimate} reads, computed once in O(|dom|) time. *)

val summarize : r:Relation.t -> s:Relation.t -> summary
(** [summarize ~r ~s] reads both relations' id spaces once.  For a
    self-join, S physically R ([s == r], the test {!Partition.make} also
    uses), it makes one pass over R's x values (dom(z) = dom(x)) and
    sums deg(y)² for the join size: the same summary as for an equal
    but distinct copy of R, from half the passes. *)

val bounds : summary -> int * int
(** The (lower, upper) sandwich used by {!estimate}. *)

val estimate : summary -> int
(** Geometric-mean estimate of |π{_xz}(R ⋈ S)|, clamped to the bounds. *)

val sampled : ?seed:int -> ?sample:int -> r:Relation.t -> s:Relation.t -> unit -> int
(** Sampling refinement (the better join-project estimators the paper's
    future-work section calls for): expands a uniform sample of [sample]
    (default 64) x values exactly with the stamp-vector join and
    extrapolates Σ|row| to the full domain.  Unbiased, O(sample · avg
    expansion) time, and clamped to {!bounds}. *)
