(** Overload controller for {!Jp_service}: shed early, degrade first.

    The bounded queue alone gives a binary overload behaviour — admit
    until full, then reject.  Under a saturating open-loop arrival
    stream that is the worst of both worlds: the queue fills with work
    that will expire before a worker reaches it, every accepted query
    pays the full queue delay, and goodput (answers within deadline)
    collapses to zero even though the workers never idle.  This
    controller adds the three standard defences, in escalation order:

    + {b Brownout}: under sustained measured overload, force the
      degraded safe plan (skip the MM heavy path — the same
      [Jp_adaptive.Guard.safe] ladder the budget guards use) so each
      accepted query costs less.  Degraded results never publish to the
      cache ({!Jp_service}'s publish-after-verify rule), so cache bypass
      comes with the ladder for free.
    + {b Admission shedding}: refuse a query outright when its estimated
      queue wait already exceeds its deadline — a fast typed [Shed]
      answer now beats a guaranteed [Deadline_exceeded] later.
    + {b Dequeue expiry}: fail still-queued tickets whose deadline has
      passed without burning a single engine cycle ([Expired_in_queue],
      zero attempts).

    The wait estimate combines two signals maintained by
    {!note_executed}: an EWMA of recent execution times scaled by the
    current queue depth per worker, and a windowed histogram of recently
    {e observed} queue waits (a {!Jp_obs.Hist.t} over the same
    base-√2 ladder as the service's [queued_seconds] histogram, but
    private to the controller so it works with recording off).  The
    shed/brownout decisions compare the estimated {e completion} time —
    queue wait plus one EWMA execution — against the deadline, so a
    query is refused exactly when it could not finish in time even if
    admitted.  The estimate is refreshed {b once per admission} — never
    per tuple — and
    brownout transitions are hysteretic: the controller enters only
    after [enter_after] consecutive hot admissions and leaves only after
    [exit_after] consecutive cool ones, so it cannot flap on a single
    burst.

    The module is clock-free: it only ever sees the durations and depths
    its caller feeds it, which is what makes the unit tests
    deterministic. *)

type config = {
  shed_margin : float;
      (** shed when the estimated completion time (queue wait + one EWMA
          execution) exceeds [shed_margin *. deadline]; 1.0 sheds exactly
          at the deadline, lower values shed earlier *)
  brownout_enter : float;
      (** an admission is {e hot} when the estimated completion time
          exceeds [brownout_enter *. deadline] *)
  brownout_exit : float;
      (** an admission is {e cool} when the estimated completion time is
          below [brownout_exit *. deadline]; keep below [brownout_enter]
          for a hysteresis band *)
  enter_after : int;  (** consecutive hot admissions before entering *)
  exit_after : int;  (** consecutive cool admissions before exiting *)
  ewma_alpha : float;
      (** weight of the newest execution time in the EWMA, in (0, 1] *)
  window : int;
      (** observations per histogram half-window; the wait quantile is
          read over the last [window..2*window] observations *)
}

val default : config
(** [shed_margin = 1.0], [brownout_enter = 0.5], [brownout_exit = 0.2],
    [enter_after = 4], [exit_after = 8], [ewma_alpha = 0.3],
    [window = 32]. *)

type t
(** Mutex-protected controller state; safe to drive from the submitting
    thread and every worker domain concurrently. *)

val create : config -> t
(** Raises [Invalid_argument] on a non-positive [window],
    [enter_after]/[exit_after] < 1, or [ewma_alpha] outside (0, 1]. *)

type verdict = {
  shed : bool;  (** refuse this query at admission *)
  brownout : bool;  (** run this query on the degraded safe path *)
  entered : bool;  (** this admission switched brownout off → on *)
  exited : bool;  (** this admission switched brownout on → off *)
  est_wait_s : float;
      (** the estimated queue wait (the shed/brownout comparisons add one
          EWMA execution on top of this) *)
}

val assess : t -> queued:int -> workers:int -> deadline_s:float option -> verdict
(** [assess t ~queued ~workers ~deadline_s] is the admission decision
    for one query given the current queue depth.  Without a deadline
    there is nothing to protect: the verdict never sheds and never
    moves the hysteresis, it only reports the current brownout state
    and estimate.  Call exactly once per submission. *)

val note_executed : t -> queued_s:float -> ran_s:float -> unit
(** Feed one executed query's measured queue wait and execution time
    back into the estimator (workers call this after each query,
    whatever its outcome). *)

val note_expired : t -> queued_s:float -> unit
(** Feed the queue wait of a query that expired at dequeue — evidence
    of overload even though nothing executed. *)

val in_brownout : t -> bool
[@@jp.lint.allow
  "unused-export"
  "controller state the overload tests check hysteresis with; the \
   service reads it through the brownout gauge"]

val est_exec_s : t -> float
[@@jp.lint.allow
  "unused-export"
  "the controller's EWMA estimate, checked by the overload estimator \
   tests"]
(** Current EWMA of execution time; 0 before any {!note_executed}. *)
