(** Set-similarity join straight through MMJoin: one counted join-project
    of the set family with itself, thresholded at c — the algorithm the
    paper evaluates as {b MMJoin} in Figures 5–6.  Fastest on dense
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
(** Pairs (i, j), i < j, of distinct sets with |i ∩ j| ≥ c.  [guard]
    supervises the underlying counted join-project
    (see {!Joinproj.Two_path.project_counts}); [cache] serves its
    prepared statistics and heavy count product from {!Jp_cache}.  Each
    of [guard]/[cancel]/[cache], absent, is an inert value through the
    same path: results identical. *)

val join_counted :
  ?domains:int ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Jp_util.Cancel.t ->
  ?cache:Jp_cache.t ->
  Relation.t ->
  Counted_pairs.t
(** The underlying counted self-join (all pairs with ≥ 1 common element,
    with exact intersection sizes) — the input to ordered enumeration. *)
