(** Ordered SSJ: enumerate similar set pairs in decreasing overlap order
    (Section 4, "Ordered SSJ").

    The matrix-based join already knows each pair's exact overlap, so
    ordering is a sort of the counted output.  SizeAware-style algorithms
    only discover {e that} a pair overlaps — each pair's intersection must
    be recomputed by merging before sorting, the extra cost Figures 5e/5f
    show. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs

val via_counts : ?domains:int -> c:int -> Relation.t -> (int * int * int) array
(** MMJoin ordered SSJ: (i, j, overlap) triples, overlap ≥ c, sorted by
    decreasing overlap (ties by (i, j)). *)

val via_pairs : Relation.t -> c:int -> Pairs.t -> (int * int * int) array
(** Orders an already-computed unordered result (e.g. SizeAware's) by
    re-deriving each pair's overlap with a sorted merge. *)

val top_k : ?domains:int -> k:int -> c:int -> Relation.t -> (int * int * int) array
[@@jp.lint.allow
  "unused-export"
  "Section 4's ordered top-k enumeration, kept with its test against the \
   via_counts prefix; the only user of Jp_util.Heap"]
(** The [k] most-similar pairs (ties broken by ascending (i, j)), without
    sorting the whole result: a size-k min-heap sweeps the counted join
    once, O(|pairs| log k).  Agrees with the prefix of {!via_counts}. *)
