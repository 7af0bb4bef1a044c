(** Observability substrate shared by every join engine and the query
    service: wall-clock spans, one registry of named instruments
    (counters, gauges, latency histograms, gauge snapshots) and
    plan-vs-actual records, exported as a Chrome trace or an OpenMetrics
    text exposition.

    Everything here is a no-op unless {!enable} has been called: [span]
    runs its thunk directly, every instrument update compiles to one
    flag check, and nothing is allocated or locked.  That keeps the
    instrumentation safe to leave in hot paths (the bench acceptance
    bound is < 2% overhead with observation off).

    Cadence: instrument updates are priced for chunk, phase or query
    granularity — never per tuple.  jp_lint's [hot-poll] rule flags
    them at loop depth >= 2; a hot loop accumulates locally and
    publishes one bulk delta at the chunk boundary.

    Concurrency: spans keep a per-domain stack (worker-domain spans nest
    under their own roots), counters and gauges are atomic ints so
    worker chunks can publish exactly, and the histograms, snapshots and
    event/plan sinks are mutex-protected.  All recorded values are
    deterministic for a fixed seed and input — only timestamps and
    observed latencies vary between runs. *)

module Json : module type of Json

module Hist : module type of Hist

(** {1 Global switch} *)

val enable : unit -> unit
(** Turn recording on (spans, instruments, plan records). *)

val disable : unit -> unit
(** Turn recording off.  Recorded data is kept until {!reset}. *)

val recording : unit -> bool
(** True between {!enable} and {!disable}.  Hot loops read this once per
    chunk and accumulate locally when it is set. *)

val reset : unit -> unit
(** Clear spans, plan records and snapshots, zero every counter and
    gauge (including the [jp_util] hook counters) and empty every
    histogram.  Registered instruments stay registered. *)

(** {1 Spans} *)

val span : ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording one wall-clock event nested under
    the calling domain's innermost open span.  Exceptions propagate after
    the span is closed.  [args] (default empty) rides along into the
    Chrome-trace export — {!Jp_service} uses it to stamp every span of a
    query with its [trace_id]/[attempt] so a served workload's lanes can
    be correlated per query. *)

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
[@@jp.lint.allow
  "unused-export"
  "the aggregated span tree render_spans prints; the obs tests assert \
   on its structure"]

val render_spans : unit -> string
(** Plain-text tree (indented {!Jp_util.Tablefmt} table) with per-node
    total and self time. *)

val chrome_trace : unit -> Json.t
(** Chrome-trace ("trace event format") document: one complete ["X"]
    event per span (["i"] per {!instant}) with microsecond [ts]/[dur]
    relative to the first span event, [tid] = recording domain, span
    [args] attached; then one ["C"] (counter) event per gauge per
    {!snapshot} on lane 0, so queue depth, in-flight queries and resident
    bytes show evolving under the span lanes; nonzero counters ride along
    under [otherData.counters].  Load the result in [chrome://tracing] or
    Perfetto. *)

(** {1 Instruments}

    One registry of named process-global instruments.  Names are unique
    across kinds and follow the dotted lowercase style with a unit
    suffix where one applies (["service.ran_seconds"]); registering a
    name already taken by another kind raises [Invalid_argument].
    Updates are dropped while recording is off. *)

type 'k instrument
(** A name and an atomic int.  The kind ['k] says how the value reads:
    a {!counter} is a tally whose deltas are meaningful, a {!gauge} a
    current level. *)

type counter = [ `Counter ] instrument

type gauge = [ `Gauge ] instrument
(** A level (queue depth, in-flight queries, resident bytes): sampled by
    {!snapshot}, exported as an OpenMetrics gauge, and absent from
    {!counter_values}. *)

val counter : string -> counter
(** Find-or-create by name (reuse returns the same cell). *)

val gauge : string -> gauge
[@@jp.lint.allow
  "unused-export"
  "find-or-create by name; the service, cache and tile store use the \
   gauges registered in G, tests register their own"]
(** Find-or-create by name. *)

val add : _ instrument -> int -> unit
(** Add to a counter or move a gauge by a delta. *)

val incr : counter -> unit

val set : gauge -> int -> unit

val value : _ instrument -> int

val counter_values : unit -> (string * int) list
(** Every registered counter (plus the [jp_util] hook counters, e.g.
    ["sort.radix_bytes"]), sorted by name.  Gauges are levels, not
    tallies, and are not listed. *)

val render_counters : unit -> string
(** Table of the nonzero counters. *)

type histogram
(** A named latency histogram over the fixed {!Hist} bucket ladder. *)

val histogram : string -> histogram
[@@jp.lint.allow
  "unused-export"
  "find-or-create by name; the service observes the histograms \
   registered in H, tests register their own"]
(** Find-or-create by name. *)

val observe : histogram -> float -> unit
(** Record one value. *)

val histogram_value : histogram -> Hist.t
[@@jp.lint.allow
  "unused-export"
  "consistent copy of a registered histogram, read by the metrics and \
   service tests"]
(** A consistent copy of the histogram's current state. *)

val snapshot : ?now:float -> unit -> unit
(** Record a timestamped sample of every registered gauge.  [now]
    defaults to the wall clock; tests pass a fake clock to make
    snapshot timestamps deterministic. *)

val snapshots : unit -> (float * (string * int) list) list
[@@jp.lint.allow
  "unused-export"
  "recorded gauge samples the metrics tests check ordering and \
   fake-clock timestamps with; chrome_trace exports them"]
(** All recorded snapshots ordered by (timestamp, recording order),
    each with its gauge values sorted by name. *)

val exposition : unit -> string
(** OpenMetrics / Prometheus text exposition of every instrument: each
    counter as [# TYPE ... counter] with a [_total] sample, each gauge
    as [# TYPE ... gauge], each histogram ([_bucket{le="..."}]
    cumulative counts, [_sum], [_count]), ending with [# EOF].  Names
    are prefixed [jp_] with non-alphanumeric characters mapped to [_];
    families are grouped counters, gauges, histograms, each sorted by
    name — the output is deterministic up to the recorded values. *)

(** The process-wide counters maintained by the instrumented engines. *)
module C : sig
  val mm_bool_word_ops : counter
  (** 62-bit payload-word ORs of the boolean heavy product
      ([Jp_tile.mul] and its streamed [mul_rows], which the star runs):
      one per union times the words holding the OR'd row's bits — a
      bitset's spare trailing word is not counted. *)

  val mm_count_word_ops : counter
  (** 62-bit payload-word AND+popcounts of the count heavy product
      ([Jp_tile.count_product]/[count_upper]), counted the same way;
      for the saturating plane product ([Jp_tile.upper_planes]), one per
      plane word written. *)

  val ssj_triangles : counter
  (** Set-similarity heavy products computed as the exact strict upper
      triangle ([Jp_tile.count_upper]), as [Jp_matrix.Cost.ssj_kernel]
      priced them; a product served from a memo is not counted. *)

  val ssj_planes : counter
  (** Set-similarity heavy products computed as saturating thermometer
      planes ([Jp_tile.upper_planes]), counted as {!ssj_triangles}. *)

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

  val tile_builds : counter
  (** Operand tiles built (or rebuilt after eviction) by [Jp_tile]. *)

  val tile_store_hits : counter
  (** Operand-tile fetches answered by the resident tile store. *)

  val tile_evictions : counter
  (** Operand tiles evicted by the resident-set byte budget. *)

  val tile_products : counter
  (** Output tiles computed by [Jp_tile.mul]/[mul_rows]/[count_product]/
      [count_upper]/[upper_planes]: every heavy product publishes at
      least one. *)

  val tile_peak_bytes : counter
  (** High-water mark of {!G.tile_bytes}: bumped by the increase whenever
      the resident footprint sets a new maximum, so its value is the
      peak and a bench cell's delta is the peak growth in that cell. *)
end

(** The process-wide gauges maintained by the service, cache and tile
    store. *)
module G : sig
  val queue_depth : gauge
  (** Jobs waiting in the [Jp_service] submission queue. *)

  val inflight : gauge
  (** Queries currently executing on [Jp_service] worker domains. *)

  val cache_bytes : gauge
  (** Resident [Jp_cache] footprint in bytes, summed across caches:
      insert adds the entry size, evict/invalidate/clear subtract it.
      Registered as ["cache.resident_bytes"]. *)

  val tile_bytes : gauge
  (** Resident operand-tile footprint of the tiled heavy-part product,
      summed across live tile stores: a build adds the net change of
      the store's footprint (the new tile less any tiles it evicted),
      the end-of-product drain subtracts the rest.  Registered as
      ["tile.resident_bytes"]. *)

  val brownout : gauge
  (** 1 while the [Jp_service.Overload] controller is in brownout
      (degraded plans forced), 0 otherwise. *)

  val est_wait_us : gauge
  (** The overload controller's most recent queue-wait estimate, in
      microseconds, refreshed once per admission. *)
end

(** The process-wide histograms maintained by the service. *)
module H : sig
  val service_queued_seconds : histogram
  (** Admission-to-first-execution latency, one observation per executed
      or dequeue-expired query ([Jp_service]). *)

  val service_ran_seconds : histogram
  (** Execution latency (all attempts and backoffs), one observation per
      executed query ([Jp_service]). *)
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
