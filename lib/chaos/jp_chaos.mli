(** Deterministic fault injection for the query service.

    Chaos testing only earns its keep when failures reproduce, so every
    fault here is a pure function of [(seed, query, attempt, degraded)]:
    the same stress run with the same seed injects the same faults into
    the same queries, run after run.  Faults are delivered through the
    two polling planes the engines already have — the per-token poll hook
    of {!Jp_util.Cancel} (hit at every engine checkpoint) and the
    process-global chunk hook of {!Jp_parallel.Pool.set_fault_hook} (hit
    once per claimed chunk on whichever domain claims it) — so injection
    sites coincide exactly with the places a real cancellation or crash
    would surface, and cost nothing when disarmed.

    Which {e domain} trips a pool fault races, but the {e outcome} does
    not: the countdown cell is decremented with a single atomic
    fetch-and-add, so exactly one poll fires the fault and the attempt
    fails with the same typed {!Injected} exception regardless of the
    interleaving. *)

module Cancel = Jp_util.Cancel

type fault =
  | Transient  (** a kernel raised; retrying may succeed *)
  | Worker_kill  (** a worker domain died mid-chunk *)
  | Slowdown of float  (** an attempt stalls for this many seconds *)

val fault_to_string : fault -> string

exception Injected of fault
(** Raised at a polling site when an armed fault fires.  [Jp_service]
    treats it as transient (retry, then degrade); it never escapes to
    service clients. *)

type config = {
  seed : int;  (** master seed; everything below derives from it *)
  p_transient : float;  (** probability an attempt suffers {!Transient} *)
  p_worker_kill : float;  (** probability of {!Worker_kill} *)
  p_slowdown : float;  (** probability of a {!Slowdown} *)
  slowdown_s : float;  (** stall length for injected slowdowns *)
  window : int;
      (** faults fire within the first [window] polls of the attempt;
          small queries only poll a few times (entry and phase
          checkpoints), so the default of 4 keeps planned faults actually
          deliverable — a fault whose poll never happens silently becomes
          a clean attempt *)
  spare_degraded : bool;
      (** when [true] (the default), degraded attempts are never faulted:
          models faults that live in the matrix fast path, so degradation
          is a genuine escape hatch *)
}

val none : config
(** All probabilities zero — armed but inert. *)

val default : int -> config
(** [default seed]: a moderately hostile mix (transient 20%, worker kill
    5%, slowdown 5% of attempts) that spares degraded attempts. *)

type plan = No_fault | Fault of { fault : fault; after : int }
(** What happens to one attempt: nothing, or [fault] fires on the
    [after]-th poll (1-based). *)

val plan : config -> query:int -> attempt:int -> degraded:bool -> plan
[@@jp.lint.allow
  "unused-export"
  "pure fault decision behind with_attempt; the chaos tests pin its \
   determinism and retry independence"]
(** The fault plan for one attempt — deterministic in its arguments.
    Distinct attempts of the same query draw independently, so retries
    can (and with [p < 1] eventually do) succeed. *)

val with_attempt :
  config ->
  query:int ->
  attempt:int ->
  degraded:bool ->
  cancel:Cancel.t ->
  pool:bool ->
  (unit -> 'a) ->
  'a
(** [with_attempt cfg ~query ~attempt ~degraded ~cancel ~pool f] runs
    [f ()] with the attempt's fault (if any) armed on [cancel]'s poll
    hook — and, when [pool] is [true], also on the global pool hook —
    and disarms both before returning or re-raising.  Only arm the pool
    hook when this attempt is the sole pool user (the service does so
    when it runs with one worker); the token hook is always safe under
    concurrency.  Bumps the [chaos.*] counters of {!Jp_obs} for each
    fault actually delivered. *)
