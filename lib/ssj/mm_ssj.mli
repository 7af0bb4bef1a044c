(** Set-similarity join straight through MMJoin: the counted
    join-project of the set family with itself, thresholded at c — the
    algorithm the paper evaluates as {b MMJoin} in Figures 5–6.  {!join}
    computes only its answer ({!Joinproj.Two_path.ssj}): the strict upper
    triangle of the heavy count product, the z > x suffix of each light
    list, and rows thresholded as they leave the merge.  Fastest on dense
    families with heavy duplication; the optimizer degrades it to the
    plain worst-case-optimal expansion on sparse ones (DBLP/RoadNet). *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs

val join :
  ?domains:int ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Jp_util.Cancel.t ->
  ?cache:Jp_cache.t ->
  c:int ->
  Relation.t ->
  Pairs.t
(** Pairs (i, j), i < j, of distinct sets with |i ∩ j| ≥ c, built
    without the counted self-join.  [guard] supervises it like
    {!Joinproj.Two_path.project_counts}; [cache] serves its prepared
    statistics and heavy triangle product from {!Jp_cache}, under a key
    of its own.  Each of [guard]/[cancel]/[cache], absent, is an inert
    value through the same path: results identical.  Raises
    [Invalid_argument] when [c < 1]. *)

val join_counted :
  ?domains:int ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Jp_util.Cancel.t ->
  ?cache:Jp_cache.t ->
  Relation.t ->
  Counted_pairs.t
(** The underlying counted self-join (all pairs with ≥ 1 common element,
    with exact intersection sizes) — the input to ordered enumeration. *)
