(** The star query algorithm of Section 3.2:
    Q*{_k}(x₁,…,x{_k}) = R₁(x₁,y), …, R{_k}(x{_k},y).

    Every relation Rᵢ is split into
    - Rᵢ⁻ : tuples whose xᵢ has degree ≤ Δ₂,
    - Rᵢ⋄ : tuples whose y is light (degree ≤ Δ₁) in {e every other}
      relation,
    - Rᵢ⁺ : the rest (heavy xᵢ, and y heavy in at least one other
      relation).

    Steps 1–2 run the worst-case-optimal join with Rⱼ replaced by Rⱼ⁻
    (then Rⱼ⋄) for each j and project.  Step 3 groups the variables into a
    ⌈k/2⌉-prefix and ⌊k/2⌋-suffix, builds the two rectangular
    matrices V ((N/Δ₂)^⌈k/2⌉ × N/Δ₁) and W over the heavy tuple
    combinations that actually occur, and multiplies.  V and W are
    adjacency (CSR) arrays over the interned combinations, so memory
    stays proportional to the heavy join, not to the nominal
    dimensions.

    [Combinatorial] replaces step 3 with the same heavy-restricted
    enumeration evaluated tuple-at-a-time — the star {b Non-MMJoin}.

    The product V·W runs through {!Jp_matrix.Tile.mul_rows}, the kernel every
    heavy product uses, on [domains] domains: output tiles are the
    parallel unit, and the result rows are streamed a band at a time,
    so peak memory stays O(band) even when the nominal u × w result
    would not fit. *)

module Relation = Jp_relation.Relation
module Tuples = Jp_relation.Tuples
module Cancel = Jp_util.Cancel

type strategy = Matrix | Combinatorial

val project :
  ?domains:int ->
  ?strategy:strategy ->
  ?thresholds:int * int ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  Relation.t array ->
  Tuples.t
(** [project rels] evaluates π{_x₁…x_k} of the star join.  Default
    [thresholds] come from {!choose_thresholds}.  Arity must be ≥ 2.
    [domains] (default 1) is the heavy product's domain count; the
    result does not depend on it.

    Star thresholds are input-derived (no |OUT| estimate), so [guard]
    contributes budgets and outcome recording only: time-budget
    checkpoints before the light steps and before the matrix step degrade
    the heavy residue to the combinatorial enumeration, the cells budget
    tightens the matrix interning cap, and a [Matrix_overflow] fallback is
    recorded as a degradation in the plan-vs-actual record.

    Without [guard] the engine runs under {!Jp_adaptive.Guard.inert}:
    the same path, no outcome recorded, identical results.

    [cancel] is polled before each sub-join, every few hundred
    iterations of the qualify/intern/enumeration loops and once per
    output tile of the heavy product; absent, the polls do nothing. *)

val choose_thresholds : Relation.t array -> int * int
[@@jp.lint.allow
  "unused-export"
  "Section 3.2 default thresholds; the star tests pin them against \
   the closed form"]
(** Closed-form threshold choice in the spirit of Example 4: balances the
    light enumeration N·Δ₁^(k−1), the output-rescan |OUT|·Δ₂ and the
    matrix work, using the k=2 estimator pessimistically lifted to k
    relations. *)
