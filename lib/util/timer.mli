(** Wall-clock timing helpers for the benchmark harness. *)

val now : unit -> float
(** Wall-clock seconds (epoch-based; only differences are meaningful). *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with elapsed wall
    seconds. *)

val time_runs : ?repeats:int -> (unit -> 'a) -> 'a * float * float list
(** [time_runs ~repeats f] runs [f] [repeats] times (default 3) and
    returns the result and elapsed time of the median-timed run {e plus}
    every run's elapsed seconds in run order — the raw sample the bench
    harness summarizes into p50/p95 alongside the median; mirrors the
    paper's "average of middle runs" methodology.

    The median run is the one ranked [repeats / 2] (0-based) when runs are
    ordered by elapsed time — the true middle for odd [repeats], the upper
    middle for even.  Ties on elapsed time are broken toward the earlier
    run, and the returned value comes from the same run as the returned
    time.  Raises [Invalid_argument] when [repeats < 1]. *)
