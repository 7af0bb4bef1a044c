(** Observability substrate: wall-clock spans, process-global counters and
    plan-vs-actual records, shared by every join engine.

    Everything here is a no-op unless {!enable} has been called: [span]
    runs its thunk directly, counter bumps compile to one flag check, and
    nothing is allocated or locked.  That keeps the instrumentation safe
    to leave in hot paths (the bench acceptance bound is < 2% overhead
    with observation off).

    Concurrency: spans keep a per-domain stack (worker-domain spans nest
    under their own roots), counters are atomic ints so worker chunks can
    publish exactly, and the event/plan sinks are mutex-protected.  All
    recorded values are deterministic for a fixed seed and input — only
    timestamps vary between runs. *)

module Json : module type of Json

(** {1 Global switch} *)

val enable : unit -> unit
(** Turn recording on (spans, counters, plan records). *)

val disable : unit -> unit
(** Turn recording off.  Recorded data is kept until {!reset}. *)

val recording : unit -> bool
(** True between {!enable} and {!disable}.  Hot loops read this once per
    chunk and accumulate locally when it is set. *)

val reset : unit -> unit
(** Clear spans and plan records, zero every counter (including the
    [jp_util] hook counters). *)

(** {1 Spans} *)

val span : ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording one wall-clock event nested under
    the calling domain's innermost open span.  Exceptions propagate after
    the span is closed.  [args] (default empty) rides along into the
    Chrome-trace export — {!Jp_service} uses it to stamp every span of a
    query with its [trace_id]/[attempt] so a served workload's lanes can
    be correlated per query. *)

val timed_span :
  ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a * float
(** Like {!span} but also returns elapsed seconds ([0.] when disabled) —
    used by engines to fill the [phases] of a plan-vs-actual record
    without timing twice. *)

val instant : ?args:(string * Json.t) list -> string -> unit
(** Record a zero-duration marker event (dropped while recording is off)
    nested under the calling domain's innermost open span: Chrome-trace
    ["i"] events such as [service.outcome] or [chaos.fault].  In the
    aggregated {!span_tree} an instant contributes a call with zero
    seconds. *)

type span_node = {
  name : string;
  calls : int;  (** events merged into this node *)
  seconds : float;  (** summed wall time across those calls *)
  children : span_node list;  (** in first-call order *)
}
(** Aggregated span tree: events sharing a call path collapse into one
    node. *)

val span_tree : unit -> span_node list

val render_spans : unit -> string
(** Plain-text tree (indented {!Jp_util.Tablefmt} table) with per-node
    total and self time. *)

val chrome_trace : ?extra:(base:float -> Json.t list) -> unit -> Json.t
(** Chrome-trace ("trace event format") document: one complete ["X"]
    event per span (["i"] per {!instant}) with microsecond [ts]/[dur]
    relative to the first event, [tid] = recording domain, span [args]
    attached; nonzero counters ride along under [otherData.counters].
    [extra ~base] may append further trace events (timestamps relative
    to [base], the first event's absolute time) — {!Jp_metrics} injects
    its gauge-snapshot ["C"] counter events this way.  Load the result
    in [chrome://tracing] or Perfetto. *)

val chrome_trace_string : ?extra:(base:float -> Json.t list) -> unit -> string

(** {1 Counters} *)

type counter
(** A named process-global tally.  Morally a plain [int ref]; atomic so
    that parallel workers publishing per-chunk subtotals cannot lose
    updates.  Bumps are dropped while recording is off. *)

val counter : string -> counter
(** Find-or-create by name (names are unique; reuse returns the same
    cell). *)

val add : counter -> int -> unit

val incr : counter -> unit

val value : counter -> int

val counter_values : unit -> (string * int) list
(** Every registered counter (plus the [jp_util] hook counters, e.g.
    ["sort.radix_bytes"]), sorted by name. *)

val render_counters : unit -> string
(** Table of the nonzero counters. *)

(** The process-wide counters maintained by the instrumented engines. *)
module C : sig
  val mm_bool_word_ops : counter
  (** 62-bit payload-word ORs of the boolean heavy product ([Jp_tile.mul],
      and the {!Jp_matrix.Boolmat.mul} reference): one per union times
      the words holding the OR'd row's bits — a bitset's spare trailing
      word is not counted. *)

  val mm_count_word_ops : counter
  (** 62-bit payload-word AND+popcounts of the count heavy product
      ([Jp_tile.count_product], and the
      {!Jp_matrix.Boolmat.count_product} reference), counted the same
      way. *)

  val stamp_hits : counter
  (** Stamp-vector probes that found the stamp already set (dedup hits). *)

  val stamp_misses : counter
  (** Stamp-vector probes that claimed a fresh value (distinct results). *)

  val light_probes : counter
  (** Candidate tuples scanned by the combinatorial (light/WCOJ) loops. *)

  val pool_tasks : counter
  (** Chunks executed by {!Jp_parallel.Pool} work loops. *)

  val pool_spawns : counter
  (** Domains spawned by {!Jp_parallel.Pool.run_workers}. *)

  val service_submitted : counter
  (** Queries offered to [Jp_service.submit] (accepted or not). *)

  val service_accepted : counter
  (** Queries admitted to the service queue. *)

  val service_rejected : counter
  (** Queries refused at admission (queue full or shutting down). *)

  val service_completed : counter
  (** Accepted queries that returned a result. *)

  val service_failed : counter
  (** Accepted queries that ended in [Failed _] after retries ran out. *)

  val service_deadline : counter
  (** Accepted queries cut off by their deadline. *)

  val service_cancelled : counter
  (** Accepted queries cancelled by the client (or at shutdown). *)

  val service_retries : counter
  (** Attempt re-runs after an injected transient fault. *)

  val service_degraded : counter
  (** Final attempts forced onto the safe non-matrix path. *)

  val service_shed : counter
  (** Queries refused at admission by the overload controller: estimated
      queue wait exceeded the query's deadline.  Disjoint from
      {!service_rejected} (queue full). *)

  val service_expired : counter
  (** Still-queued queries failed fast at dequeue because their deadline
      had already passed — zero engine attempts.  Counted separately from
      {!service_deadline} (which covers queries that started running). *)

  val service_brownout_entered : counter
  (** Overload-controller brownout transitions (off → on). *)

  val service_brownout_exited : counter
  (** Overload-controller brownout transitions (on → off). *)

  val service_brownout_served : counter
  (** Queries forced onto the degraded safe path by an active brownout. *)

  val service_workers_spawned : counter
  (** Service worker domains spawned; must equal {!service_workers_joined}
      after shutdown (the leak check in the service tests). *)

  val service_workers_joined : counter
  (** Service worker domains joined at shutdown. *)

  val chaos_transients : counter
  (** Transient kernel faults actually delivered by [Jp_chaos]. *)

  val chaos_worker_kills : counter
  (** Worker-domain deaths actually delivered by [Jp_chaos]. *)

  val chaos_slowdowns : counter
  (** Artificial slowdowns actually delivered by [Jp_chaos]. *)

  val cache_hits : counter
  (** [Jp_cache] lookups answered from a resident entry. *)

  val cache_misses : counter
  (** [Jp_cache] lookups that found no entry. *)

  val cache_evictions : counter
  (** Entries pushed out by the LANDLORD byte budget. *)

  val cache_rejects : counter
  (** Entries refused by the cost-based admission test. *)

  val cache_invalidations : counter
  (** Entries dropped because a fingerprint was invalidated. *)

  val cache_bytes : counter
  (** Resident cache footprint gauge (insert adds the entry size,
      evict/invalidate subtracts it). *)

  val tile_builds : counter
  (** Operand tiles built (or rebuilt after eviction) by [Jp_tile]. *)

  val tile_store_hits : counter
  (** Operand-tile fetches answered by the resident tile store. *)

  val tile_evictions : counter
  (** Operand tiles evicted by the resident-set byte budget. *)

  val tile_products : counter
  (** Output tiles computed by [Jp_tile.mul]/[count_product]: every
      heavy product publishes at least one. *)

  val tile_bytes : counter
  (** Resident tile-store footprint gauge (build adds the tile size,
      evict subtracts it), mirroring {!cache_bytes}. *)

  val tile_peak_bytes : counter
  (** High-water mark of {!tile_bytes}: bumped by the increase whenever
      the resident footprint sets a new maximum, so its value is the
      peak and a bench cell's delta is the peak growth in that cell. *)
end

(** {1 Plan vs actual} *)

type plan_actual = {
  label : string;  (** engine entry point, e.g. ["two_path"] *)
  decision : string;  (** rendered optimizer decision *)
  est_out : int;  (** estimated |OUT|; negative = not estimated *)
  join_size : int;  (** exact full-join size |OUT⋈| *)
  est_seconds : float;  (** optimizer cost estimate; [nan] = none *)
  actual_out : int;  (** measured |OUT| *)
  actual_seconds : float;  (** measured wall seconds *)
  replanned : bool;
      (** an adaptive guard re-planned mid-query with observed statistics *)
  degraded : bool;
      (** a resource budget forced degradation to the safe WCOJ path *)
  phases : (string * float) list;  (** per-phase seconds, from spans *)
}
(** One engine invocation: what {!Joinproj.Optimizer.plan} predicted next
    to what actually happened — the feedback loop the cost model needs. *)

val record_plan :
  ?replanned:bool ->
  ?degraded:bool ->
  label:string ->
  decision:string ->
  est_out:int ->
  join_size:int ->
  est_seconds:float ->
  actual_out:int ->
  actual_seconds:float ->
  phases:(string * float) list ->
  unit ->
  unit
(** Append a record (dropped while recording is off).  [replanned] and
    [degraded] (default [false]) carry the adaptive-guard outcome. *)

val plan_records : unit -> plan_actual list
(** In recording order. *)

val render_plans : unit -> string
(** Plan-vs-actual table: estimated vs measured output size and seconds
    with error ratios, plus the per-phase breakdown. *)
