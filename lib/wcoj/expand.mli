(** Per-x expansion joins with dedup-vector deduplication.

    This is the paper's Section-6 inner loop: for a fixed x value [a],
    union the inverted lists L(b) of its neighbours b, deduplicating with a
    reusable stamp vector instead of a hash table (no rehashing, no upfront
    |OUT| reservation).  It implements:

    - the projection of the *full* 2-path join (the WCOJ-then-project
      baseline, and the combinatorial heavy-part strategy of Non-MMJoin);
    - the light sub-joins R⁻ ⋈ S and R ⋈ S⁻ of Algorithm 1, via the
      [xs]/[keep_y] filters;
    - the counting variant needed by SSJ/SCJ, which accumulates witness
      multiplicities instead of booleans.

    All variants parallelize over x with per-worker scratch (coordination
    free, as exploited by Figures 4d/4e), through
    {!Jp_parallel.Pool.split_ranges}.

    With [?cancel] the expansion polls the token every few thousand x's
    (per worker) and raises {!Jp_util.Cancel.Cancelled}; without it the
    same loop runs and polls nothing.

    A join value y that S's id space does not reach has no S tuples: R
    may use a wider y domain than S. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Cancel = Jp_util.Cancel

val project :
  ?domains:int ->
  ?cancel:Cancel.t ->
  ?xs:int array ->
  ?keep_y:(int -> bool) ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  Pairs.t
(** [project ~r ~s ()] is π{_xz}(R(x,y) ⋈ S(z,y)) as deduplicated pairs.
    [xs] restricts the driving x values (default: all of dom(x));
    [keep_y] filters join values y.
    Rows for x values outside [xs] are empty. *)

val project_counts :
  ?domains:int ->
  ?cancel:Cancel.t ->
  ?xs:int array ->
  ?keep_y:(int -> bool) ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  Counted_pairs.t
(** Counting variant: multiplicity of (x, z) = number of surviving
    witnesses y. *)

val count_distinct :
  ?xs:int array ->
  ?keep_y:(int -> bool) ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  int
(** |π{_xz}(R ⋈ S)| without materializing the pairs (still O(join) time,
    O(dom z) space). *)
