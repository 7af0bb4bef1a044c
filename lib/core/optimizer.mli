(** The cost-based optimizer of Section 5 (Algorithm 3).

    Decides between plain worst-case-optimal evaluation and the partitioned
    MM algorithm, and in the latter case picks the degree thresholds
    (Δ₁, Δ₂) by geometric descent over Δ₁ with Δ₂ tied by
    N·Δ₁ = |OUT|·Δ₂, costing each candidate from:

    - the Section-5 degree indexes (exact light-side work, O(log N) per
      probe — see {!Jp_relation.Stats});
    - the calibrated matrix-multiplication estimate M̂ and the machine
      constants T{_s}, T{_m}, T{_I} (see {!Jp_matrix.Cost}).

    As in the paper, inputs whose full join is at most 20·N (a fixed
    constant) short-circuit to the worst-case-optimal plan, and the
    descent stops the first time the estimated cost increases
    (the paper's footnote fixes the per-step factor; we use ×0.95 per
    step, i.e. ε = 0.05 in Algorithm 3's notation). *)

module Relation = Jp_relation.Relation
module Cost = Jp_matrix.Cost

type decision =
  | Wcoj  (** evaluate the full join with the stamp-vector expansion *)
  | Partitioned of { d1 : int; d2 : int }
      (** Algorithm 1 with these thresholds *)

(** Which split a cost prices: the boolean projection's, whose heavy
    part is the merge's row-ORs of S⁺ bit rows
    ({!Cost.row_or_seconds}), or the exact-count one's, whose heavy part
    is the count product ({!Cost.count_product_seconds}) and where only
    the join variable is partitioned. *)
type kind = Boolean | Count

type plan = {
  decision : decision;
  est_out : int;  (** estimated |OUT| *)
  join_size : int;  (** exact |OUT{_⋈}| *)
  est_seconds : float;  (** estimated cost of the chosen plan *)
}

type prepared
(** Planning state for one (r, s) pair.  {!prepare} computes the
    O(|dom|) {!Estimator.summary} and applies the 20N rule first; only an
    input the rule does not send to WCOJ gets the Section-5 degree
    indexes, built with counting sorts in O(N + max degree).  Planning
    from it afterwards is the descent over O(log N) index probes, or the
    WCOJ plan straight from the summary.  The value is immutable, so a
    cached one may be read from several domains at once. *)

val prepare : r:Relation.t -> s:Relation.t -> prepared

val summary : prepared -> Estimator.summary
(** The summary {!prepare} computed: N, the active x and z counts and
    the exact join size. *)

val prepared_bytes : prepared -> int
(** Approximate bytes the value holds besides its relations, for cache
    accounting: a value the 20N rule decided costs a few words. *)

val plan :
  ?domains:int ->
  ?est_out:int ->
  ?mm_cost_scale:float ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  plan
(** Algorithm 3 for the boolean projection: the heavy part is costed as
    the row-ORs the merge runs, one per one of R⁺
    ({!Cost.row_or_seconds}, with nnz(R⁺) bounded by the tuples on
    heavy y and by u·v); the exact-count plan is {!plan_counts}.  Every
    plan prices its candidates with {!Cost.machine}, the one
    process-wide machine record (pin it with {!Cost.set_machine}).

    [est_out] overrides the {!Estimator.estimate} |OUT| estimate and
    [mm_cost_scale] multiplies the M̂ term of every candidate cost —
    the hooks the adaptive guard layer uses both to {e inject}
    misestimation (forcing a deliberately bad plan) and to {e re-plan}
    with statistics observed at a runtime checkpoint. *)

val plan_counts :
  ?domains:int ->
  ?est_out:int ->
  ?mm_cost_scale:float ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  plan
(** Variant for the exact-count evaluation used by SSJ/SCJ, where only the
    join variable is partitioned: the heavy part is costed as the count
    product ({!Cost.count_product_seconds}), and the returned [d2] is the
    maximal degree (every x/z is treated as light outside the matrix). *)

val plan_prepared :
  ?domains:int ->
  ?est_out:int ->
  ?mm_cost_scale:float ->
  prepared ->
  unit ->
  plan
(** {!plan} from pre-built indexes — cheap enough to call at a runtime
    checkpoint. *)

val plan_counts_prepared :
  ?domains:int ->
  ?est_out:int ->
  ?mm_cost_scale:float ->
  prepared ->
  unit ->
  plan
(** {!plan_counts} from pre-built indexes. *)

val estimate_cost_prepared :
  ?domains:int ->
  ?kind:kind ->
  prepared ->
  decision ->
  float
(** Honest (un-injected, estimate-free) cost of executing [decision] on
    the prepared [r ⋈ s]: the light side is costed exactly from the
    degree indexes and the heavy side from M̂ on the true heavy
    dimensions.  [kind] (default [Boolean]) names the split: [Boolean]
    prices {!plan}'s, [Count] prices {!plan_counts}' (only the join
    variable partitioned).  Guard checkpoints compare this against a
    plan's [est_seconds] to detect cost misestimation after the
    heavy/light split is known.  [Partitioned] on a value the 20N rule
    decided (a forced plan under a re-planning guard) builds the
    indexes for this call only. *)

val theoretical_thresholds : n:int -> out:int -> int * int
(** The closed-form thresholds of Section 3.1's analysis (assuming ω = 2),
    used by the ABL-THRESH ablation as a cost-model-free comparison point:

    - |OUT| ≤ N (Case 1): Δ₁ = |OUT|^⅓, Δ₂ = N/|OUT|^⅔;
    - |OUT| > N (Case 2): Δ₁ = Δ₂ = (2N²/(N+|OUT|))^⅓.

    Both are clamped to [1, N]. *)

val decision_to_string : decision -> string
(** ["wcoj"] or ["mm(d1=…,d2=…)"] — the rendering shared by {!explain}
    and the observability layer's plan-vs-actual records. *)

val explain : plan -> string
(** One-line human-readable rendering for the CLI and the benches. *)
