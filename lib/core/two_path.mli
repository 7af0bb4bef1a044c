(** Algorithm 1: output-sensitive evaluation of
    Q̈(x,z) = R(x,y), S(z,y) — the paper's core contribution.

    The tuple space is split by the degree thresholds of {!Partition}:

    + light sub-joins R⁻ ⋈ S and R ⋈ S⁻ are expanded with the
      worst-case-optimal stamp-vector join (their pre-projection size is
      bounded by N·Δ₁ + |OUT|·Δ₂);
    + the all-heavy residue is the boolean matrix product of the
      adjacency matrices of R⁺ and S⁺, read one row at a time: row x is
      the OR of the S⁺ rows of x's heavy y, formed inside the merge;
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
module Tile = Jp_matrix.Tile

type strategy =
  | Matrix
      (** heavy part via the {!heavy_rows} ORed per heavy x (boolean) /
          {!Tile.count_product} (counts) / {!Tile.count_upper} or the
          {!heavy_rows} saturated into planes per heavy x ({!ssj}) *)
  | Combinatorial  (** heavy part via stamp-vector expansion (Non-MMJoin) *)

(** The boolean heavy part of {!project}'s [Matrix] strategy, built in
    one pass over each heavy y's S list.  S⁺ as bit rows: heavy y
    number [i] (its position in the partition's [heavy_y], i.e. its
    [y_index]) owns [bits.(i·stride .. (i+1)·stride − 1)], whose bit
    [l mod 62] of word [l / 62] is set when z = [heavy_z.(l)] is in the
    y's S list; [stride] = ⌈|heavy_z| / 62⌉.  [light_z.(i)] is the same
    heavy y's light z (those without a column), ascending.  A heavy x's
    product row is the OR of its heavy y's bit rows, so the u×w product
    itself is never built.  {!ssj}'s planes read the same rows at
    (d1, 0), where every z next to a heavy y has a column and so every
    [light_z] list is empty. *)
type heavy_rows = {
  stride : int;
  bits : int array;
  light_z : int array array;
}

(** Memoization hooks, consumed by [Jp_cache] (which sits above this
    library in the dependency graph).  Each hook receives the builder of
    a deterministic, immutable intermediate — the prepared optimizer
    indexes, the {!heavy_rows}, or a counted heavy-part matrix product,
    identified by the partition thresholds — and may return a
    previously built value for the same (r, s, thresholds) instead of
    running it.  A product hook wraps the whole product: {!Tile} is
    bit-equal for every tile config, so the key does not depend on it.
    Heavy rows are not a product (their [bits] are S⁺, not
    M{_R⁺}·M{_S⁺}) and have a hook of their own, which {!project} and
    {!ssj}'s planes share (the SSJ reads them at (d1, 0) for every c).
    A memo value is specific to the (r, s) pair it was created for;
    hooks are consulted once per phase, never per tuple.  {!ssj}'s
    exact triangle ({!Tile.count_upper}) has a hook of its own, keyed
    on d1 only: it does not depend on the threshold, and it is not the
    full count product. *)
type memo = {
  memo_prepared : (unit -> Optimizer.prepared) -> Optimizer.prepared;
  memo_heavy_rows : d1:int -> d2:int -> (unit -> heavy_rows) -> heavy_rows;
  memo_count_product :
    d1:int -> (unit -> Jp_matrix.Intmat.t) -> Jp_matrix.Intmat.t;
  memo_upper_product :
    d1:int -> (unit -> Jp_matrix.Intmat.t) -> Jp_matrix.Intmat.t;
}

val heavy_product :
  ?domains:int ->
  r:Relation.t ->
  s:Relation.t ->
  Partition.t ->
  Jp_matrix.Boolmat.t
(** The heavy-part boolean product M{_R⁺}·M{_S⁺} for a partition,
    through {!Tile.mul} at its default config: rows are [heavy_x],
    columns [heavy_z] (indexes per the partition's [x_index]/[z_index]).  Deterministic in (r, s, thresholds) and
    independent of [domains] — which is what makes it cacheable.  Used
    by the BSI fast path to answer heavy-heavy point queries without
    re-running the join.  {!project} does not call it: its merge ORs
    the same rows from {!heavy_rows}, recording the same
    [mm.bool_word_ops]. *)

val project :
  ?domains:int ->
  ?strategy:strategy ->
  ?plan:Optimizer.plan ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  ?memo:memo ->
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
    A time budget blown after entry is marked once, when the call
    returns ([degraded] in the plan record), at any [domains].
    Without [guard] the same path runs under {!Jp_adaptive.Guard.inert},
    whose checkpoints all answer [Continue]: no re-plan, no degradation,
    no [guard.*] counters, identical results.

    Under [Matrix] the heavy part is {!heavy_rows}: the [heavy-mm]
    phase builds them (one pass over each heavy y's S list, behind the
    [memo_heavy_rows] hook; a hit skips the pass), and the
    [light-merge] phase ORs the bit rows of each heavy x's heavy y into
    its split row ({!Jp_util.Row_acc.or_words}), adding
    ⌈|heavy_z| / 62⌉ to [mm.bool_word_ops] per row ORed — in total
    nnz(R⁺)·⌈|heavy_z| / 62⌉, what {!heavy_product} records.  Parallel
    merges share the rows read-only.  No {!Tile} kernel runs.  The
    cancel token is polled at phase boundaries and once per merge chunk
    (every guard chunk at [domains = 1], every split range at
    [domains > 1]). *)

val project_counts :
  ?domains:int ->
  ?strategy:strategy ->
  ?plan:Optimizer.plan ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  ?memo:memo ->
  ?tile:Tile.config ->
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
    run the same count merge with every y light.  If a count matrix
    would exceed 2·10⁸ cells the heavy part silently falls back to the
    combinatorial strategy.

    [guard] adds the entry/pre-MM budget checks, the cost-honesty
    re-plan checkpoint and the exit budget mark; the guard's cells budget additionally tightens
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
    ({!Jp_util.Row_acc.emit_ge_into}).  The heavy kernel is the one
    {!Jp_matrix.Cost.ssj_kernel} prices cheaper for the product's
    shape, [c] and nnz: {!Tile.count_upper}'s exact triangle, built in
    the [heavy-count-mm] phase; or [c] saturating planes, which count
    each pair only up to [c] (exact for the threshold:
    min(h, c) + l ≥ c iff h + l ≥ c).  For planes the [heavy-count-mm]
    phase builds the {!heavy_rows} at (d1, 0) (behind
    [memo_heavy_rows], the same entry {!project} uses), and the
    [count-merge] phase starts each heavy x's row as c empty planes,
    saturates into them the bit row of each of its heavy y from the
    word holding the column past the diagonal on
    ({!Jp_util.Row_acc.saturate_words}), clears the columns up to the
    diagonal, and adds the light witnesses; it records
    c·(⌈w/62⌉ − ⌊(i + 1)/62⌋) [mm.count_word_ops] per bit row
    saturated into row i < w − 1.  The [ssj.triangle_products]/
    [ssj.plane_products] counters name the kernel that ran.  No counted pairs are
    built.  [plan] forces a plan, for tests.  Expects [c >= 1]: the
    internal entry behind [Mm_ssj.join], which checks it. *)
