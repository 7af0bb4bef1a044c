(** Cross-query semantic cache: prepared optimizer statistics, heavy-part
    matrix products and whole results, shared across queries.

    The paper's BSI application (Section 5.3) amortizes one heavy⊗heavy
    matrix product across a whole batch of set-intersection queries; this
    module generalizes that trick to a served workload.  Three levels,
    one store:

    + {b L1} — {!Joinproj.Optimizer.prepared} statistics/indexes keyed by
      {!Jp_relation.Relation.fingerprint}, so a repeated query skips
      [Optimizer.prepare];
    + {b L2} — whole heavy-part matrix products keyed by (fingerprints,
      partition thresholds), via the {!Joinproj.Two_path.memo} hooks —
      one entry per product, whatever tile config built it;
    + {b L3} — whole results with cost-based admission ({!offer}): an
      entry is admitted only when its measured recompute cost times its
      observed miss count beats its byte footprint.

    All levels share one LANDLORD-evicted byte budget.  Every level is
    {e semantic}, not transactional: entries are pure functions of the
    relation fingerprints and integer parameters in their key, so a hit
    returns a value byte-identical to what recomputation would produce.
    Coherence rules (enforced by the cache tests and the integration
    matrix):

    - relations are fingerprinted once at load and treated as frozen —
      mutation-based invalidation is unsound because [Relation.adj_*]
      share arrays with the index (see {!Jp_relation.Relation.fingerprint});
    - a dynamic view update invalidates by fingerprint ({!invalidate});
    - results are published {e after} verification and never from a
      cancelled, faulted or degraded attempt ({!binding_publish} runs the
      verifier first; [Jp_service] only publishes clean [Ok] outcomes);
    - lookups happen once per query or phase, never per tuple.

    A single mutex guards the store: safe to share between the service's
    worker domains.  All operations are deterministic given the same
    sequence of calls; wall-clock costs only bias admission and eviction
    priority, never the values returned. *)

module Relation = Jp_relation.Relation

type t
(** A cache instance (one per service / CLI invocation). *)

type config = {
  budget_bytes : int;
      (** Resident byte budget shared by all levels.  Entries larger than
          the whole budget are rejected outright. *)
  admit_seconds_per_mb : float;
      (** L3 admission bar: {!offer} admits an entry only when
          [cost_s * misses_seen >= admit_seconds_per_mb * bytes / 1Mb].
          L1/L2 entries ({!put}) skip the test — reusing them is the
          reason the cache exists. *)
}

val default_config : config
(** 64 Mb budget, 5 ms/Mb admission bar. *)

val create : ?config:config -> unit -> t

val with_budget_mb : int -> config
(** [default_config] with the given budget in megabytes. *)

(** Structured cache keys: a kind string, the fingerprints of the
    relations the entry derives from, and integer parameters (partition
    thresholds, engine ids).  The fingerprints double as the invalidation
    index for {!invalidate}. *)
module Key : sig
  type t

  val v : kind:string -> ?fps:int list -> ?params:int list -> unit -> t
  [@@jp.lint.allow
    "unused-export"
    "raw key constructor the cache tests build synthetic keys with; \
     the served path builds keys with of_relations"]

  val of_relations : kind:string -> ?params:int list -> Relation.t list -> t
  (** Key over the fingerprints of the given relations. *)
end

type 'a tag
(** Type witness for heterogeneous storage.  Create one per value type at
    module-load time and reuse it: two distinct [tag] values never alias,
    even with the same name (a lookup through the wrong tag misses). *)

val tag : string -> 'a tag

(** {1 Generic store} *)

val find : t -> 'a tag -> Key.t -> 'a option
(** Bumps hit/miss statistics (and the miss count consulted by {!offer}'s
    admission test). *)

val put : t -> 'a tag -> Key.t -> bytes:int -> cost_s:float -> 'a -> unit
(** Unconditional insert (L1/L2): evicts under the LANDLORD budget as
    needed, replaces any entry under the same key.  [cost_s] seeds the
    entry's eviction credit — cheap-to-rebuild entries go first. *)

val offer : t -> 'a tag -> Key.t -> bytes:int -> cost_s:float -> 'a -> bool
[@@jp.lint.allow
  "unused-export"
  "cost-based L3 admission primitive; the cache tests drive its \
   admission rule directly"]
(** Cost-based insert (L3): admits only when the measured recompute cost
    times the key's observed miss count beats the byte footprint (see
    {!config}).  Returns whether the entry was admitted. *)

val invalidate : t -> fp:int -> unit
(** Drops every entry whose key lists the fingerprint [fp].  Called by
    the dynamic-view layer on every base-relation update. *)

val clear : t -> unit
[@@jp.lint.allow
  "unused-export"
  "drops every entry; the cache tests reset a cache with it between \
   phases"]

type stats = {
  entries : int;
  bytes : int;  (** resident footprint *)
  hits : int;
  misses : int;
  evictions : int;
  rejections : int;  (** admission-test refusals *)
  invalidations : int;  (** entries dropped by {!invalidate} *)
}

val stats : t -> stats
(** Exact, independent of whether {!Jp_obs} recording is enabled (the
    [cache.*] counters mirror these when it is). *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Typed views used by the engines} *)

val prepared : t -> r:Relation.t -> s:Relation.t -> Joinproj.Optimizer.prepared
(** L1: cached [Optimizer.prepare ~r ~s], which applies the 20N rule
    before it builds any index (an entry the rule decided is a few words).
    Entries are immutable, so worker domains read them concurrently. *)

val two_path_memo :
  t -> r:Relation.t -> s:Relation.t -> Joinproj.Two_path.memo
(** L1+L2 hooks for {!Joinproj.Two_path.project} /
    [project_counts] / [ssj]: prepared statistics and heavy-part matrix
    products served from the cache.  The memo is specific to this (r, s)
    pair.  Products are keyed on thresholds but not on [domains] or the
    tile configuration: [Jp_tile] produces identical matrices for any
    worker count, tile cap and budget, so one entry serves them all.
    [ssj]'s product lives under a kind of its own, keyed also on the
    threshold c and the kernel that built it, so it is never served to
    [project_counts] and planes saturated at one c never answer
    another.  A count product is charged the cells it stores: n² for a
    full one, n(n−1)/2 for a triangle; planes are charged
    k·rows·words·8 + 64 bytes (k planes of [rows] rows, [words]
    payload words per row). *)

(** {1 L3 result bindings (consumed by [Jp_service])} *)

type 'a binding
(** One result slot: cache, key, type witness, byte estimator and
    verifier, bundled so the service can consult and publish without
    knowing the result type. *)

val binding :
  t ->
  'a tag ->
  Key.t ->
  bytes_of:('a -> int) ->
  ?verify:('a -> bool) ->
  unit ->
  'a binding

val binding_find : 'a binding -> 'a option

val binding_publish : 'a binding -> cost_s:float -> 'a -> bool
(** Runs the verifier, then {!offer}s the value — in that order, so a
    value that fails verification is never resident, not even briefly.
    Returns whether the entry was admitted. *)
