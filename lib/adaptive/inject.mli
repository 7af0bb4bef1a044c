(** Deterministic misestimation injection.

    The optimizer's inputs — the |OUT| estimate of {!Joinproj.Estimator}
    and the matrix-cost estimate M̂ of {!Jp_matrix.Cost} — are exactly the
    quantities Section 6 shows can be badly off on skewed data.  An
    injector scales them by chosen factors {e before} planning, so tests
    and benches can force every guard transition (Wcoj ⇄ Partitioned,
    budget degradation) on demand instead of hunting for adversarial
    datasets.

    Injection only distorts what the planner {e believes}; re-planning
    inside the guard always uses clean (un-injected) estimates, which is
    what lets a guarded run recover.  Factors are fixed, so injected
    runs are exactly reproducible. *)

type t = {
  out_factor : float;  (** multiplies the |OUT| estimate (1.0 = honest) *)
  mm_factor : float;  (** multiplies the M̂ matrix-cost estimate *)
}

val none : t
(** Both factors 1.0: planning is untouched. *)

val is_none : t -> bool

val out_only : float -> t

val out : t -> int -> int
(** Apply [out_factor] to an |OUT| estimate, clamped to ≥ 1. *)
