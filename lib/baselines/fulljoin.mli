(** "System X-like" baseline: worst-case-optimal full join followed by
    projection, with the cheap stamp-vector deduplication of Section 6.

    This is the strongest join-then-dedup strategy — Proposition 1's
    O(|D| ^ rho-star) evaluation — and also serves as the reference oracle the
    test suite compares every other engine against. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Tuples = Jp_relation.Tuples

val two_path : ?domains:int -> r:Relation.t -> s:Relation.t -> unit -> Pairs.t
(** π{_xz}(R ⋈ S) by per-x expansion (O(|D| + |OUT{_⋈}|)). *)

val star : Relation.t array -> Tuples.t
[@@jp.lint.allow
  "unused-export"
  "full-join-then-project reference the star tests compare every \
   engine against"]
(** π{_x₁…x_k} of the full star join. *)
