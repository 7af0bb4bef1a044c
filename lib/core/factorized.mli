(** Factorized (compressed) representation of a join-project result.

    The paper's graph-analytics motivation (Section 1) is serving views
    like the co-author graph V(x,y) = R(x,p), R(y,p) without materializing
    them; it credits matrix multiplication's "implicit factorization of
    the output formed by heavy values" for MMJoin's space efficiency, and
    cites compressed CQ-result representations \[19, 35\].

    This module makes that factorization a first-class value.  The output
    of Q̈(x,z) = R(x,y) ⋈ S(z,y) is stored as

    - the {e light} pairs, materialized as CSR rows (they are few:
      bounded by N·Δ₁ + |OUT|·Δ₂); plus
    - one {e biclique} X(b) × Z(b) per heavy witness b, stored as the two
      sorted id arrays — Σ(|X(b)| + |Z(b)|) ≤ 2N integers no matter how
      large the materialized product would be.

    Membership, enumeration and counting are answered directly from this
    representation; on community-structured data it is orders of magnitude
    smaller than the explicit pair set (see ABL-COMPRESS). *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs

type t

val build :
  ?plan:Optimizer.plan -> ?thresholds:int * int -> r:Relation.t -> s:Relation.t ->
  unit -> t
(** Builds the compressed view.  Thresholds come from [plan] /
    [thresholds] / Algorithm 3, in that priority order; a [Wcoj] plan
    materializes everything as light pairs (no bicliques). *)

val mem : t -> int -> int -> bool
(** O(log) in the light part plus one probe per biclique containing x. *)

val count : t -> int
(** Number of distinct pairs, |OUT| (computed by streaming {!iter}'s
    dedup, O(|OUT|) time, O(dom z) space). *)

val stored_ints : t -> int
(** Integers stored by the representation: the compression denominator. *)

val bicliques : t -> int
(** Number of heavy-witness bicliques. *)

val to_pairs : t -> Pairs.t
(** Materializes (decompresses) the full pair set. *)

val of_pairs : Pairs.t -> t
[@@jp.lint.allow
  "unused-export"
  "trivial factorization (no bicliques), the degenerate case the \
   factorized tests round-trip"]
(** Trivial (uncompressed) wrapper, for comparisons. *)
