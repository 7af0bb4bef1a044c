(** Adaptive plan guards: runtime checkpoints and resource budgets for the
    MMJoin engines.

    Algorithm 3 commits to a plan (Wcoj vs Partitioned, thresholds Δ₁/Δ₂)
    from {e estimates} of |OUT| and the matrix cost, and those estimates
    can be badly off on skewed inputs.  A guard turns the plan into a
    supervised execution: at partition boundaries (heavy/light split
    materialized, pre-MM density check, per-chunk light-side expansion)
    the engine asks the guard to compare observed work against the plan's
    estimate, and the guard answers with a {!verdict}:

    - [Continue] — observation is within the divergence factor;
    - [Replan] — the estimate is off by more than [divergence]×; the
      engine re-plans with the observed statistics (clean, un-injected)
      and may switch Wcoj ⇄ Partitioned mid-query, reusing output already
      produced;
    - [Degrade] — a resource budget (wall-clock or intermediate matrix
      cells) is exhausted; the engine must abandon matrix plans and
      finish on the safe combinatorial/WCOJ path, which needs no large
      intermediates.

    A guard value is single-use mutable state for one engine invocation
    (cheap to create; not thread-safe — checkpoints must run on the
    coordinating domain).  Engines consult it once per chunk or phase,
    never per tuple, mirroring the [Jp_obs.recording] instrumentation
    rule.  Checkpoint/replan/degrade totals are published to the
    [guard.*] counters of {!Jp_obs} while recording is on, except by an
    {!inert} guard. *)

type budget = {
  max_seconds : float option;
      (** wall-clock budget from {!start}; [Some 0.] degrades immediately *)
  max_cells : int option;
      (** intermediate-size budget: total matrix cells (u·v + v·w + u·w)
          any heavy step may materialize *)
}

type config = {
  divergence : float;
      (** re-plan when observed/estimated leaves
          [[1/divergence, divergence]]; must be > 1 (default 8) *)
  check_every : int;
      (** x rows expanded between guard checkpoints inside chunked loops
          (default 4096) *)
  probe_rows : int;
      (** x rows the guarded Wcoj path expands before its first
          plan-vs-actual extrapolation checkpoint (default 1024) *)
  max_replans : int;  (** re-planning fuel per invocation (default 1) *)
  budget : budget;
  inject : Inject.t;  (** misestimation injected into the initial plan *)
}

val default : config
(** Divergence 8, checkpoints every 4096 rows, probe 1024 rows, one
    re-plan, no budget, no injection. *)

val inert : config
(** {!default} without re-planning fuel: no budget, no fuel, no
    injection, so every checkpoint answers [Continue].  A guard started
    from it (or from any config with the same three properties)
    publishes no [guard.*] counters and never records a re-plan or a
    degradation.  It is what the engines run under when [?guard] is
    absent: one execution path, results identical. *)

val with_budget_ms : float -> config -> config
(** Set [budget.max_seconds] from milliseconds. *)

val with_inject : Inject.t -> config -> config

val safe : config
(** {!default} with a zero wall-clock budget: degrades at the first
    checkpoint, so the whole query runs on the safe combinatorial/WCOJ
    path with no large matrix intermediates.  [Jp_service] runs its
    degraded final attempt under this config. *)

type verdict = Continue | Replan | Degrade

type t
(** Runtime state of one guarded invocation. *)

val start : config -> t
(** Start the wall clock and zero the outcome flags. *)

val config : t -> config

val inject : t -> Inject.t

val check_budget : t -> cells:int -> verdict
(** [Degrade] iff the wall clock or [cells] exceeds the budget.  Pass
    [~cells:0] for pure time checks. *)

val check_estimate : t -> est:float -> observed:float -> verdict
(** [Replan] iff [observed/est] leaves [[1/divergence, divergence]] and
    re-planning fuel remains; [Continue] otherwise.  Non-positive [est]
    (no estimate) never triggers. *)

val can_replan : t -> bool
(** Re-planning fuel remains.  Engines consult this before paying for a
    speculative clean re-plan at a checkpoint. *)

val note_replan : t -> unit
(** The engine actually re-planned (consumes one unit of fuel). *)

val note_degrade : t -> unit
(** Record a degradation; a no-op on an {!inert} guard. *)

val replanned : t -> bool

val degraded : t -> bool

val checkpoints : t -> int
[@@jp.lint.allow
  "unused-export"
  "checkpoint count of one guard, read by the adaptive tests; the \
   guard.checkpoints counter publishes it only while recording"]
(** Number of [check_budget]/[check_estimate] calls so far. *)
