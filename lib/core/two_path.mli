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

    All entry points take [?cancel]: a {!Jp_util.Cancel} token polled at
    phase boundaries and once per merge chunk (never per tuple), raising
    {!Jp_util.Cancel.Cancelled} promptly when the token is cancelled or
    its deadline passes.  Absent capabilities are inert values through
    the same path — no token polls nothing, no guard is
    {!Jp_adaptive.Guard.inert}, no memo is {!no_memo} — so results are
    identical with and without them.

    R may use a wider y id space than S: a y that S does not reach has
    no S tuples. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Cancel = Jp_util.Cancel

type strategy =
  | Matrix
      (** heavy part via {!Jp_tile.mul} (boolean) /
          {!Jp_tile.count_product} (counts) *)
  | Combinatorial  (** heavy part via stamp-vector expansion (Non-MMJoin) *)

(** Memoization hooks, consumed by [Jp_cache] (which sits above this
    library in the dependency graph).  Each hook receives the builder of
    a deterministic, immutable intermediate — the prepared optimizer
    indexes, or a heavy-part matrix product identified by the partition
    thresholds — and may return a previously built value for the same
    (r, s, thresholds) instead of running it.  A product hook wraps the
    whole product: {!Jp_tile} is bit-equal for every tile config, so
    the key does not depend on it.  A memo value
    is specific to the (r, s) pair it was created for; hooks are
    consulted once per phase, never per tuple. *)
type memo = {
  memo_prepared : (unit -> Optimizer.prepared) -> Optimizer.prepared;
  memo_bool_product :
    d1:int -> d2:int -> (unit -> Jp_matrix.Boolmat.t) -> Jp_matrix.Boolmat.t;
  memo_count_product :
    d1:int -> (unit -> Jp_matrix.Intmat.t) -> Jp_matrix.Intmat.t;
}

val no_memo : memo
(** Identity hooks: every builder runs.  [?memo] absent is [no_memo],
    an inert value through the same path, like an absent [?guard] or
    [?cancel]. *)

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
    {!Optimizer.plan_counts}.  If the count matrices would exceed
    [matrix_cell_cap] cells (default 2·10⁸) the heavy part silently falls
    back to the combinatorial strategy.

    [guard] adds the entry/pre-MM budget checks and the cost-honesty
    re-plan checkpoint; the guard's cells budget additionally tightens
    the cell cap (a third of [max_cells] per matrix, so the three
    products stay within the budget), and a live guard records the
    cell-cap fallback as a degradation.  plan_counts' thresholds do not
    depend on the |OUT| estimate, so there is no chunked output
    checkpoint in this variant.  Without [guard] the same path runs
    under {!Jp_adaptive.Guard.inert}. *)

val project_with_plan_info :
  ?domains:int ->
  ?strategy:strategy ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  ?tile:Jp_tile.config ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  Pairs.t * Optimizer.plan
(** {!project} that also returns the plan it chose (for EXPLAIN-style
    reporting in the CLI and benches).  The returned plan is the
    un-injected one it starts from; with [guard] the execution may still
    re-plan away from it. *)
