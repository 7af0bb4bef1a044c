(** Coordination-free data parallelism on OCaml 5 domains.

    The paper's parallel experiments (Figures 3b, 4d–g, 5d/g/h, 7) all rely
    on embarrassingly parallel partitioning: matrix row blocks and per-x
    join work need no communication between tasks.  This module provides
    exactly that: a bounded set of domains pulling chunk indices from a
    single atomic counter (dynamic load balancing, no locks).

    {b Failure.}  When a worker body raises, a shared stop flag makes the
    remaining domains abandon their claim loops at the next chunk boundary
    instead of draining the whole range; after everyone has joined, the
    failure with the {e lowest} chunk index is re-raised on the caller's
    domain — deterministic even though domains race, because the chunk
    counter hands indices out in order.

    {b Cancellation.}  With [?cancel], workers poll the token once per
    chunk claim and stop claiming once it is cancelled; the call then
    raises {!Jp_util.Cancel.Cancelled} on the calling domain.  In the
    [domains <= 1] degenerate case the range is chunked so the token is
    still polled between chunks.  Without a token nothing is polled and
    the results are the same. *)

module Cancel = Jp_util.Cancel

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()]; the widest sensible [domains]
    argument on this machine. *)

val set_fault_hook : (unit -> unit) option -> unit
(** Install (or clear, with [None]) the process-global chaos injection
    point, called once per chunk claim on whichever domain claims it.
    The hook may raise — that is the point: [Jp_chaos] uses it to
    simulate transient kernel faults and worker-domain deaths, which
    then flow through the stop-flag/re-raise machinery above.  Disarmed,
    the cost is one atomic load per chunk.  Not for use outside the
    chaos layer; arm it only around a single supervised invocation. *)

val parallel_for :
  domains:int ->
  ?chunk:int ->
  ?cancel:Cancel.t ->
  lo:int ->
  hi:int ->
  (int -> unit) ->
  unit
(** [parallel_for ~domains ~lo ~hi body] runs [body i] for every
    [lo <= i < hi] across [domains] domains.  [chunk] is the number of
    consecutive indices a worker claims at a time (default: picked so there
    are ~8 chunks per domain).  With [domains <= 1] it degenerates to a
    plain sequential loop with zero domain overhead. *)

val parallel_for_ranges :
  domains:int ->
  ?chunk:int ->
  ?cancel:Cancel.t ->
  lo:int ->
  hi:int ->
  (int -> int -> unit) ->
  unit
(** [parallel_for_ranges ~domains ~lo ~hi body] is like {!parallel_for} but
    hands each worker whole ranges: [body range_lo range_hi] with
    [lo <= range_lo < range_hi <= hi].  Lets the body hoist per-chunk
    scratch allocations. *)

val split_ranges :
  domains:int ->
  ?cancel:Cancel.t ->
  lo:int ->
  hi:int ->
  scratch:(unit -> 's) ->
  ('s -> int -> int -> unit) ->
  unit
(** Static split for kernels with per-worker scratch: one contiguous
    range per domain, so each worker calls [scratch ()] exactly once and
    hands it to [body sc range_lo range_hi] over consecutive sub-ranges
    of at most 4096 indices.  [cancel] is polled between sub-ranges —
    workers stop gracefully — and {!Jp_util.Cancel.Cancelled} is raised
    on the calling domain afterwards; without a token nothing is polled.
    With [domains <= 1] it runs on the calling domain with no pool
    overhead. *)

val map_reduce :
  domains:int ->
  ?chunk:int ->
  ?cancel:Cancel.t ->
  lo:int ->
  hi:int ->
  combine:('a -> 'a -> 'a) ->
  init:'a ->
  (int -> 'a) ->
  'a
(** Per-domain local folds combined at the end; [combine] must be
    associative and [init] its identity.  The combination order is
    unspecified. *)
