(** Per-x expansion joins with dedup-vector deduplication.

    This is the paper's Section-6 inner loop: for a fixed x value [a],
    union the inverted lists L(b) of its neighbours b, deduplicating with a
    reusable stamp vector instead of a hash table (no rehashing, no upfront
    |OUT| reservation).  It implements:

    - the projection of the *full* 2-path join (the WCOJ-then-project
      baseline, and the combinatorial heavy-part strategy of Non-MMJoin);
    - the counting variant needed by SSJ/SCJ, which accumulates witness
      multiplicities instead of booleans.

    All variants parallelize over x with per-worker scratch (coordination
    free, as exploited by Figures 4d/4e), through
    {!Jp_parallel.Pool.split_ranges}.  Each worker appends its rows, in
    x order, to its own flat buffer ({!Jp_relation.Pairs.chunk}), and
    the result packs the buffers in x order, one pass each
    ({!Jp_relation.Pairs.of_chunks}).

    With [?cancel] the expansion polls the token every few thousand x's
    (per worker) and raises {!Jp_util.Cancel.Cancelled}; without it the
    same loop runs and polls nothing.

    A join value y that S's id space does not reach has no S tuples: R
    may use a wider y domain than S. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Cancel = Jp_util.Cancel
module Row_acc = Jp_util.Row_acc
module Vec = Jp_util.Vec

val project :
  ?domains:int ->
  ?cancel:Cancel.t ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  Pairs.t
(** [project ~r ~s ()] is π{_xz}(R(x,y) ⋈ S(z,y)) as deduplicated pairs,
    every x of dom(x) expanded over every join value y. *)

val expand_rows :
  acc:Row_acc.t ->
  out:Vec.t ->
  lengths:int array ->
  r:Relation.t ->
  s:Relation.t ->
  int ->
  int ->
  unit
(** [expand_rows ~acc ~out ~lengths ~r ~s lo hi] is {!project}'s work
    for the x values [lo, hi), written into a caller's buffer: each row,
    ascending in x, is appended to [out] and its length stored at
    [lengths.(x + 1)].  An x with no tuple keeps length 0; a row of
    one list (one y) is that list, copied, and a row of two is their
    union ({!Row_acc.two_lists_into}); only rows of three or more lists
    go through [acc].  The light probe and stamp counters it publishes
    are the same either way: probes are the lists' lengths, misses the
    rows'.  [s] must
    already cover R's y domain ({!Relation.widen_dst}), and [acc] must
    span dom(z).  For engines that place rows of several phases into one
    result. *)

val project_counts :
  ?domains:int ->
  ?cancel:Cancel.t ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  Counted_pairs.t
(** Counting variant: multiplicity of (x, z) = number of surviving
    witnesses y. *)

val count_distinct :
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  int
(** |π{_xz}(R ⋈ S)| without materializing the pairs (still O(join) time,
    O(dom z) space). *)
