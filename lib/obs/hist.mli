(** Fixed-bucket latency histogram: the plain, single-domain value — not
    registered, not gated, not locked.  {!Jp_obs}'s registered
    histograms and client-side summaries (the CLI latency tables, the
    overload controller's private wait window) all build on it.

    Bucket bounds are a fixed base-√2 geometric ladder: [b.(0) = 1e-6]
    and [b.(i) = b.(i-1) *. sqrt 2.] for 64 finite buckets (≈ 1 µs to
    ≈ 50 min), plus a [+Inf] overflow bucket.  The bounds are identical
    in every process, so bucket counts, merges and quantile reads are
    reproducible for a fixed input; only observed wall-clock values
    vary. *)

type t

val create : unit -> t

val observe : t -> float -> unit
(** Add one value.  Values at or below the lowest bound land in the
    first bucket; values above the highest finite bound land in the
    overflow bucket.  Not thread-safe — callers serialize. *)

val count : t -> int

val sum : t -> float

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
(** Per-bucket (upper bound, count) pairs in bound order, ending with
    the [(infinity, overflow)] bucket. *)

val merge_into : into:t -> t -> unit
(** Add every bucket count (and [sum]/[count]/[max_value]) of the
    second histogram into [into].  The source is unchanged.  Merging is
    commutative on bucket counts, totals and quantiles because the
    bounds are fixed. *)

val copy : t -> t

val clear : t -> unit
