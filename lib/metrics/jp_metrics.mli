(** Aggregate metrics for the serving spine: latency histograms, gauges,
    timestamped gauge snapshots and an OpenMetrics text exposition.

    {!Jp_obs} answers "what did this one query do" (spans, counters,
    plan-vs-actual); this module answers "what is the service doing" —
    distributions instead of anecdotes.  It follows the same contract:

    - {b Gated}: {!observe}, {!set_gauge}, {!add_gauge} and {!snapshot}
      are dropped unless [Jp_obs.recording ()] — one flag check, no
      allocation, no lock — so they are safe to leave in serving paths.
    - {b Deterministic}: histogram bucket boundaries are a fixed base-√2
      geometric ladder, so bucket counts, merges and quantile reads are
      reproducible for a fixed input; wall-clock {e values} are the only
      nondeterminism, and tests inject a fake clock through
      [snapshot ?now].
    - {b Chunk granularity}: never observe per tuple.  Every [lib/]
      recording happens once per query or phase.  A hot loop that had to
      record values would observe into a {!Local} accumulator and publish
      once per chunk/phase; no [lib/] loop does yet.  jp_lint's
      [hot-poll] rule flags {!observe}/{!set_gauge}/{!add_gauge}/
      {!snapshot} at loop depth >= 2 (the {!Local.observe} call is
      exempt, as that in-loop form). *)

(** {1 Histogram data structure}

    [Hist.t] is the plain, single-domain histogram value: not registered,
    not gated, not locked.  The registered layer below and client-side
    summaries (e.g. the CLI latency table over an array of reports) both
    build on it. *)
module Hist : sig
  type t

  val create : unit -> t

  val bucket_bounds : unit -> float array
  [@@jp.lint.allow
    "unused-export"
    "the fixed bucket layout the metrics tests check the sqrt-2 \
     quantile bound against"]
  (** The shared bucket upper bounds: [b.(0) = 1e-6] and
      [b.(i) = b.(i-1) *. sqrt 2.] for 64 finite buckets (≈ 1 µs to
      ≈ 50 min), plus an implicit [+Inf] overflow bucket.  Fresh copy. *)

  val observe : t -> float -> unit
  (** Add one value.  Values at or below the lowest bound land in the
      first bucket; values above the highest finite bound land in the
      overflow bucket.  Not thread-safe — callers serialize. *)

  val count : t -> int

  val sum : t -> float
  [@@jp.lint.allow "unused-export" "histogram total the metrics tests check merges with"]

  val max_value : t -> float
  (** Largest observed value; [nan] when empty. *)

  val quantile : t -> float -> float
  (** [quantile h q] for [q] in [[0, 1]] ([q] is clamped): the upper
      bound of the bucket holding the nearest-rank [q]-quantile sample,
      clamped to {!max_value} so no quantile reads above the observed
      maximum.  Because bounds grow by √2, the estimate [e] of an exact
      sample value [v >= 1e-6] satisfies [v <= e <= v *. sqrt 2.];
      values below [1e-6] report as [1e-6]; overflow-bucket quantiles
      report the tracked {!max_value}.  [nan] when empty. *)

  val buckets : t -> (float * int) list
  [@@jp.lint.allow
    "unused-export"
    "per-bucket counts the metrics tests check merges and exposition \
     with"]
  (** Per-bucket (upper bound, count) pairs in bound order, ending with
      the [(infinity, overflow)] bucket. *)

  val merge_into : into:t -> t -> unit
  (** Add every bucket count (and [sum]/[count]/[max_value]) of the
      second histogram into [into].  The source is unchanged.  Merging is
      commutative on bucket counts, totals and quantiles because the
      bounds are fixed. *)

  val copy : t -> t

  val clear : t -> unit
end

(** {1 Registered histograms} *)

type histogram
(** A named, process-global, mutex-protected histogram.  Observations are
    dropped while recording is off. *)

val histogram : string -> histogram
[@@jp.lint.allow
  "unused-export"
  "find-or-create by name; the service registers its histograms in H, \
   tests register their own"]
(** Find-or-create by name (names are unique; reuse returns the same
    histogram).  Follow the obs naming style — dotted lowercase with a
    unit suffix, e.g. ["service.ran_seconds"]. *)

val observe : histogram -> float -> unit
(** Record one value (dropped while recording is off).  Per-query or
    per-phase granularity only — never per tuple (jp_lint [hot-poll]). *)

val histogram_value : histogram -> Hist.t
[@@jp.lint.allow
  "unused-export"
  "consistent copy of a registered histogram, read by the metrics and \
   service tests"]
(** A consistent copy of the histogram's current state. *)

val histogram_values : unit -> (string * Hist.t) list
[@@jp.lint.allow "unused-export" "every registered histogram, read by the metrics tests"]
(** Every registered histogram (copied), sorted by name. *)

(** Domain-local accumulation for hot paths: observe into a private
    [Hist.t] with no gate and no lock, then {!Local.publish} one bulk
    merge at the chunk/phase boundary (the publish is gated). *)
module Local : sig
  type t

  val create : histogram -> t
  [@@jp.lint.allow
    "unused-export"
    "hot-loop accumulator of the metrics cadence rules (hot-poll \
     exempts Local.observe); no engine records per-row latencies yet"]

  val observe : t -> float -> unit
  [@@jp.lint.allow
    "unused-export"
    "hot-loop accumulator of the metrics cadence rules (hot-poll \
     exempts Local.observe); no engine records per-row latencies yet"]
  (** Ungated, lock-free; allowed inside hot loops. *)

  val publish : t -> unit
  [@@jp.lint.allow
    "unused-export"
    "hot-loop accumulator of the metrics cadence rules (hot-poll \
     exempts Local.observe); no engine records per-row latencies yet"]
  (** Merge the accumulated values into the target histogram (one lock,
      dropped while recording is off) and clear the accumulator. *)
end

(** {1 Gauges} *)

type gauge
(** A named process-global level (queue depth, in-flight queries,
    resident bytes): an atomic int sampled by {!snapshot}.  Updates are
    dropped while recording is off. *)

val gauge : string -> gauge
[@@jp.lint.allow
  "unused-export"
  "find-or-create by name; the service and cache register their \
   gauges in G, tests register their own"]
(** Find-or-create by name. *)

val set_gauge : gauge -> int -> unit

val add_gauge : gauge -> int -> unit

val gauge_value : gauge -> int
[@@jp.lint.allow "unused-export" "current level of a gauge, read by the metrics tests"]

(** {1 Snapshots} *)

val snapshot : ?now:float -> unit -> unit
(** Record a timestamped sample of every registered gauge (dropped while
    recording is off).  [now] defaults to the wall clock; tests pass a
    fake clock to make snapshot timestamps deterministic.  Cadence: once
    per query / chunk / phase — never per tuple. *)

val snapshots : unit -> (float * (string * int) list) list
[@@jp.lint.allow
  "unused-export"
  "recorded gauge samples the metrics tests check ordering and \
   fake-clock timestamps with"]
(** All recorded snapshots ordered by (timestamp, recording order) —
    recording order breaks timestamp ties deterministically. *)

(** {1 Well-known instruments} *)

(** Histograms maintained by the instrumented service. *)
module H : sig
  val service_queued_seconds : histogram
  (** Admission-to-first-execution latency, one observation per executed
      query ({!Jp_service}). *)

  val service_ran_seconds : histogram
  (** Execution latency (all attempts and backoffs), one observation per
      executed query ({!Jp_service}). *)
end

(** Gauges maintained by the instrumented service and cache. *)
module G : sig
  val queue_depth : gauge
  (** Jobs waiting in the {!Jp_service} submission queue. *)

  val inflight : gauge
  (** Queries currently executing on {!Jp_service} worker domains. *)

  val cache_bytes : gauge
  (** Resident {!Jp_cache} footprint in bytes (sum across caches),
      mirroring the [cache.bytes] counter so snapshots sample it over
      time.  Registered as ["cache.resident_bytes"]. *)

  val tile_bytes : gauge
  (** Resident operand-tile footprint of the tiled heavy-part product
      (sum across live tile stores), mirroring the [tile.bytes] counter
      the same way {!cache_bytes} mirrors [cache.bytes].  Registered as
      ["tile.resident_bytes"]; snapshots carry it into the OpenMetrics
      exposition and the Chrome-trace counter lanes. *)

  val brownout : gauge
  (** 1 while the {!Jp_service.Overload} controller is in brownout
      (degraded plans forced), 0 otherwise. *)

  val est_wait_us : gauge
  (** The overload controller's most recent queue-wait estimate, in
      microseconds (gauges are ints), refreshed once per admission. *)
end

(** {1 Export} *)

val exposition : unit -> string
(** OpenMetrics / Prometheus text exposition of everything recorded:
    every {!Jp_obs} counter (as [# TYPE ... counter] with a [_total]
    sample; the [cache.bytes] footprint counter is typed [gauge]), every
    registered gauge, and every registered histogram
    ([_bucket{le="..."}] cumulative counts, [_sum], [_count]), ending
    with [# EOF].  Names are prefixed [jp_] with non-alphanumeric
    characters mapped to [_]; families are grouped counters, gauges,
    histograms, each sorted by name — the output is deterministic up to
    the recorded values. *)

val chrome_trace_string : unit -> string
(** [Jp_obs]'s Chrome trace plus one ["C"] (counter) event per gauge per
    snapshot — the lanes that show queue depth / in-flight / cache bytes
    evolving under the span lanes — rendered as JSON. *)

val reset : unit -> unit
(** Clear every registered histogram, zero every gauge, drop all
    snapshots.  (Does not touch {!Jp_obs} state — call [Jp_obs.reset]
    separately.) *)
