(* Overload controller: wait estimation + hysteretic brownout.  Clock-free
   (only sees durations/depths fed by the caller) and independent of the
   Jp_obs recording gate — the estimator must keep working in production
   with observability off, so it owns plain Jp_obs.Hist values instead
   of registered histograms. *)

module Hist = Jp_obs.Hist

type config = {
  shed_margin : float;
  brownout_enter : float;
  brownout_exit : float;
  enter_after : int;
  exit_after : int;
  ewma_alpha : float;
  window : int;
}

let default =
  {
    shed_margin = 1.0;
    brownout_enter = 0.5;
    brownout_exit = 0.2;
    enter_after = 4;
    exit_after = 8;
    ewma_alpha = 0.3;
    window = 32;
  }

type t = {
  cfg : config;
  lock : Mutex.t;
  (* Recent queue waits, two rotating half-windows: [cur] fills, [prev]
     holds the previous window, quantile reads merge both.  Bounded
     memory, bounded staleness. *)
  cur : Hist.t;
  prev : Hist.t;
  mutable cur_n : int;
  mutable ewma_exec_s : float;
  mutable hot_streak : int;
  mutable cool_streak : int;
  mutable brownout : bool;
}

let create cfg =
  if cfg.window < 1 then invalid_arg "Overload.create: window must be >= 1";
  if cfg.enter_after < 1 || cfg.exit_after < 1 then
    invalid_arg "Overload.create: hysteresis streaks must be >= 1";
  if not (cfg.ewma_alpha > 0. && cfg.ewma_alpha <= 1.) then
    invalid_arg "Overload.create: ewma_alpha must be in (0, 1]";
  {
    cfg;
    lock = Mutex.create ();
    cur = Hist.create ();
    prev = Hist.create ();
    cur_n = 0;
    ewma_exec_s = 0.;
    hot_streak = 0;
    cool_streak = 0;
    brownout = false;
  }

let observe_wait t queued_s =
  Hist.observe t.cur queued_s;
  t.cur_n <- t.cur_n + 1;
  if t.cur_n >= t.cfg.window then begin
    Hist.clear t.prev;
    Hist.merge_into ~into:t.prev t.cur;
    Hist.clear t.cur;
    t.cur_n <- 0
  end

let note_executed t ~queued_s ~ran_s =
  Mutex.lock t.lock;
  observe_wait t queued_s;
  t.ewma_exec_s <-
    (if t.ewma_exec_s = 0. then ran_s
     else
       (t.cfg.ewma_alpha *. ran_s)
       +. ((1. -. t.cfg.ewma_alpha) *. t.ewma_exec_s));
  Mutex.unlock t.lock

let note_expired t ~queued_s =
  Mutex.lock t.lock;
  observe_wait t queued_s;
  Mutex.unlock t.lock

(* Wait estimate for a query joining a queue of depth [queued]: the
   backlog drained at the EWMA service rate across the workers, or the
   recent empirically observed wait — whichever is worse.  The quantile
   term catches regimes the backlog model misses (e.g. in-flight giants);
   the backlog term reacts instantly to a queue spike before any of those
   waits have been observed.  An empty queue silences the quantile term:
   the stale waits of a drained backlog say nothing about a query that
   can start as soon as a worker frees up (without this, a recovered
   service would keep shedding until the window rotated). *)
let estimate t ~queued ~workers =
  let workers = max 1 workers in
  let backlog = t.ewma_exec_s *. float_of_int queued /. float_of_int workers in
  let observed =
    if queued = 0 || (Hist.count t.cur = 0 && Hist.count t.prev = 0) then 0.
    else begin
      let m = Hist.copy t.prev in
      Hist.merge_into ~into:m t.cur;
      let q = Hist.quantile m 0.75 in
      if Float.is_nan q then 0. else q
    end
  in
  Float.max backlog observed

type verdict = {
  shed : bool;
  brownout : bool;
  entered : bool;
  exited : bool;
  est_wait_s : float;
}

let assess t ~queued ~workers ~deadline_s =
  Mutex.lock t.lock;
  let est_wait = estimate t ~queued ~workers in
  (* The decision variable is estimated *completion* time: the queue wait
     plus the query's own expected execution.  Shedding on the wait alone
     would admit queries whose wait leaves no room to actually run. *)
  let est = est_wait +. t.ewma_exec_s in
  let verdict =
    match deadline_s with
    | None ->
      (* Nothing to protect and no reference scale: report, don't act. *)
      { shed = false; brownout = t.brownout; entered = false; exited = false;
        est_wait_s = est_wait }
    | Some d ->
      let was = t.brownout in
      if est > t.cfg.brownout_enter *. d then begin
        t.hot_streak <- t.hot_streak + 1;
        t.cool_streak <- 0
      end
      else if est < t.cfg.brownout_exit *. d then begin
        t.cool_streak <- t.cool_streak + 1;
        t.hot_streak <- 0
      end
      else begin
        (* Inside the hysteresis band: neither side accumulates. *)
        t.hot_streak <- 0;
        t.cool_streak <- 0
      end;
      if (not was) && t.hot_streak >= t.cfg.enter_after then t.brownout <- true;
      if was && t.cool_streak >= t.cfg.exit_after then t.brownout <- false;
      {
        shed = est > t.cfg.shed_margin *. d;
        brownout = t.brownout;
        entered = (not was) && t.brownout;
        exited = was && not t.brownout;
        est_wait_s = est_wait;
      }
  in
  Mutex.unlock t.lock;
  verdict

let in_brownout t =
  Mutex.lock t.lock;
  let b = t.brownout in
  Mutex.unlock t.lock;
  b

let est_exec_s t =
  Mutex.lock t.lock;
  let e = t.ewma_exec_s in
  Mutex.unlock t.lock;
  e
