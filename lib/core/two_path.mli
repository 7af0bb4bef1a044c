(** Algorithm 1: output-sensitive evaluation of
    Q̈(x,z) = R(x,y), S(z,y) — the paper's core contribution.

    The tuple space is split by the degree thresholds of {!Partition}:

    + light sub-joins R⁻ ⋈ S and R ⋈ S⁻ are expanded with the
      worst-case-optimal stamp-vector join (their pre-projection size is
      bounded by N·Δ₁ + |OUT|·Δ₂);
    + the all-heavy residue is evaluated as a matrix product of the
      adjacency matrices of R⁺ and S⁺;
    + the parts are merged with per-x deduplication (a pair can be
      discovered both by a light witness and by the matrix, so the union
      is not disjoint — the merge handles it).

    [Combinatorial] replaces step 2 with the same stamp-vector expansion
    restricted to heavy tuples: that is the paper's {b Non-MMJoin}
    baseline (the Lemma-2-style combinatorial output-sensitive
    algorithm), sharing every other code path with {b MMJoin}.

    The exact-count variants ({!project_counts}, and {!ssj}, the
    set-similarity join of Section 6) partition y only and run in one
    counted frame; {!ssj} computes just its answer, the strict upper
    triangle thresholded at c, and never builds the counted pairs.

    All entry points take [?cancel]: a {!Jp_util.Cancel} token polled at
    phase boundaries and once per merge chunk (never per tuple), raising
    {!Jp_util.Cancel.Cancelled} promptly when the token is cancelled or
    its deadline passes.  Absent capabilities are inert values through
    the same path — no token polls nothing, no guard is
    {!Jp_adaptive.Guard.inert}, no memo builds every product directly —
    so results are identical with and without them.

    R may use a wider y id space than S: a y that S does not reach has
    no S tuples. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Cancel = Jp_util.Cancel

type strategy =
  | Matrix
      (** heavy part via {!Jp_tile.mul} (boolean) /
          {!Jp_tile.count_product} (counts) / {!Jp_tile.count_upper} or
          {!Jp_tile.upper_planes} ({!ssj}) *)
  | Combinatorial  (** heavy part via stamp-vector expansion (Non-MMJoin) *)

(** {!ssj}'s heavy product: only the cells (i, l) with l > i of A·Aᵀ,
    either exact ({!Jp_tile.count_upper}'s triangle) or as [c]
    thermometer planes saturated at the threshold
    ({!Jp_tile.upper_planes}). *)
type upper_product =
  | Triangle of Jp_matrix.Intmat.t
  | Planes of Jp_matrix.Boolmat.t array

(** Memoization hooks, consumed by [Jp_cache] (which sits above this
    library in the dependency graph).  Each hook receives the builder of
    a deterministic, immutable intermediate — the prepared optimizer
    indexes, or a heavy-part matrix product identified by the partition
    thresholds — and may return a previously built value for the same
    (r, s, thresholds) instead of running it.  A product hook wraps the
    whole product: {!Jp_tile} is bit-equal for every tile config, so
    the key does not depend on it.  A memo value
    is specific to the (r, s) pair it was created for; hooks are
    consulted once per phase, never per tuple.  {!ssj}'s product has a
    hook of its own, keyed on the threshold [c] and the kernel
    [Jp_matrix.Cost.ssj_kernel] priced: planes saturated at one [c] are
    no answer for another, and neither kind is the full count
    product. *)
type memo = {
  memo_prepared : (unit -> Optimizer.prepared) -> Optimizer.prepared;
  memo_bool_product :
    d1:int -> d2:int -> (unit -> Jp_matrix.Boolmat.t) -> Jp_matrix.Boolmat.t;
  memo_count_product :
    d1:int -> (unit -> Jp_matrix.Intmat.t) -> Jp_matrix.Intmat.t;
  memo_upper_product :
    d1:int ->
    c:int ->
    kernel:Jp_matrix.Cost.ssj_kernel ->
    (unit -> upper_product) ->
    upper_product;
}

val heavy_product :
  ?domains:int ->
  r:Relation.t ->
  s:Relation.t ->
  Partition.t ->
  Jp_matrix.Boolmat.t
(** The heavy-part boolean product M{_R⁺}·M{_S⁺} for a partition,
    through {!Jp_tile} at its default config: rows are [heavy_x],
    columns [heavy_z] (indexes per the partition's [x_index]/[z_index]).  Deterministic in (r, s, thresholds) and
    independent of [domains] — which is what makes it cacheable.  Used
    by the BSI fast path to answer heavy-heavy point queries without
    re-running the join. *)

val project :
  ?domains:int ->
  ?strategy:strategy ->
  ?plan:Optimizer.plan ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  ?memo:memo ->
  ?tile:Jp_tile.config ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  Pairs.t
(** π{_xz}(R ⋈ S).  Without [plan], Algorithm 3 plans the query first
    (including the possible decision to run the plain worst-case-optimal
    join).

    With [guard], execution is supervised by {!Jp_adaptive.Guard}: the
    initial plan sees the guard's injected misestimation, and runtime
    checkpoints (Wcoj output probe, post-partition pre-MM cost/cells
    check, per-chunk light-merge extrapolation when [domains = 1]) may
    re-plan with observed statistics — switching Wcoj ⇄ Partitioned
    mid-query while keeping rows already produced — or degrade matrix
    plans to the combinatorial heavy part when a budget is exhausted.
    Without [guard] the same path runs under {!Jp_adaptive.Guard.inert},
    whose checkpoints all answer [Continue]: no re-plan, no degradation,
    no [guard.*] counters, identical results.

    The heavy-part product always runs through {!Jp_tile}, at a tile
    shape fitted to the product; [tile] is only that shape's cap and
    the operand tiles' resident budget, and absent is
    [Jp_tile.config ()].  Results are bit-equal for every [tile].  Guard
    checkpoints and cancel polls fire once per output tile; a [memo]
    hit skips the product whole. *)

val project_counts :
  ?domains:int ->
  ?strategy:strategy ->
  ?plan:Optimizer.plan ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  ?memo:memo ->
  ?tile:Jp_tile.config ->
  ?matrix_cell_cap:int ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  Counted_pairs.t
(** Like {!project} but with exact witness multiplicities.  Here only the
    join variable is partitioned — {!Partition.make} with Δ₂ = 0, the
    same heavy product path as {!project} — and a pair's witnesses may
    be split between the light and heavy parts, so per-pair counts from
    both sides are summed (see DESIGN.md); plans should come from
    {!Optimizer.plan_counts}.  Wcoj plans and the combinatorial strategy
    run the same count merge with every y light.  If the count matrices
    would exceed [matrix_cell_cap] cells (default 2·10⁸) the heavy part
    silently falls back to the combinatorial strategy.

    [guard] adds the entry/pre-MM budget checks and the cost-honesty
    re-plan checkpoint; the guard's cells budget additionally tightens
    the cell cap (a third of [max_cells] per matrix, so the three
    products stay within the budget), and a live guard records the
    cell-cap fallback as a degradation.  plan_counts' thresholds do not
    depend on the |OUT| estimate, so there is no chunked output
    checkpoint in this variant.  Without [guard] the same path runs
    under {!Jp_adaptive.Guard.inert}. *)

val ssj :
  ?domains:int ->
  ?plan:Optimizer.plan ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  ?memo:memo ->
  c:int ->
  Relation.t ->
  Pairs.t
(** The set-similarity join of a set family [r] with itself: pairs
    (x, z), x < z, with at least [c] common elements.  It runs
    {!project_counts}' frame with r = s and the default tile config —
    the same plan, guard checkpoints, phases and plan record (label
    [two_path.ssj]; its actual |OUT| is the full counted self-join's
    size, 2·(pairs x < z with a common element) + (non-empty sets), so
    it compares with est_out) — but computes only its answer:
    the heavy product holds only the cells past the diagonal, the merge
    reads each light list only past x and each product row only past
    the diagonal, and rows leave the accumulator already thresholded
    ({!Jp_util.Row_acc.emit_ge}).  The product is the one
    {!Jp_matrix.Cost.ssj_kernel} prices cheaper for its shape, [c] and
    nnz: {!Jp_tile.count_upper}'s exact triangle, or
    {!Jp_tile.upper_planes}' [c] planes, which count each pair only up
    to [c] (exact for the threshold: min(h, c) + l ≥ c iff h + l ≥ c).
    The [ssj.triangle_products]/[ssj.plane_products] counters name the
    kernel that ran.  No counted pairs are
    built.  [plan] forces a plan, for tests.  Expects [c >= 1]: the
    internal entry behind [Mm_ssj.join], which checks it. *)
