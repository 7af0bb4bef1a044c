(** Incrementally maintained join-project views.

    The paper's related work highlights the static/dynamic trade-off for
    hierarchical queries (Kara et al.): once a join-project view like the
    co-author graph is materialized, applications want to {e maintain} it
    under updates rather than recompute.  This module maintains
    Q̈(x,z) = R(x,y), S(z,y) with exact witness counts under single-tuple
    insertions and deletions:

    - the per-pair witness count ζ(x,z) = |{y : R(x,y) ∧ S(z,y)}| is kept
      in a hash map;
    - inserting (a,b) into R adds 1 to ζ(a,c) for every c ∈ S(b) —
      O(deg{_S}(b)) work, the standard delta-query cost;
    - a pair is in the projection iff ζ > 0, so membership and |OUT| are
      O(1) reads.

    Memory is O(|OUT{_⋈} distinct pairs|); this is the materialized end of
    the trade-off (the factorized end is {!Joinproj.Factorized}, which is
    static).  Both input relations are also kept as dynamic adjacency so
    deltas can be computed. *)

type t

val init :
  ?cache:Jp_cache.t ->
  r:Jp_relation.Relation.t ->
  s:Jp_relation.Relation.t ->
  unit ->
  t
(** Materializes the view (one counted pass over the smaller-side
    expansion).

    With [cache], the view becomes the invalidation authority for its
    base relations: every effective update (an insert of a new tuple or
    a delete of a present one) drops all cache entries keyed on [r]'s or
    [s]'s fingerprint — prepared statistics, matrix products and results
    alike — {e before} applying the delta.  The static [r]/[s] values
    stay frozen (their fingerprints were computed at load); it is the
    view's dynamic copy that evolves, which is exactly why
    mutation-based re-fingerprinting is never attempted (see
    {!Jp_relation.Relation.fingerprint}). *)

val create : unit -> t
[@@jp.lint.allow
  "unused-export"
  "empty view the incremental-maintenance tests grow tuple by tuple; \
   init builds one from relations"]
(** The empty view over empty relations (ids grow on demand). *)

val insert_r : t -> int -> int -> unit
(** [insert_r v a b] adds tuple (a,b) to R; no-op if already present. *)

val insert_s : t -> int -> int -> unit

val delete_r : t -> int -> int -> unit
(** No-op if the tuple is absent. *)

val delete_s : t -> int -> int -> unit

val mem : t -> int -> int -> bool
[@@jp.lint.allow
  "unused-export"
  "point membership of the maintained view, checked by the dynamic \
   tests against recomputation"]
(** Is (x,z) in the projected view right now? *)

val count : t -> int
(** |OUT|: number of distinct (x,z) pairs with at least one witness. *)

val witnesses : t -> int -> int -> int
[@@jp.lint.allow
  "unused-export"
  "point multiplicity of the maintained view, checked by the dynamic \
   tests against recomputation"]
(** ζ(x,z): the multiplicity (0 if absent). *)

val to_counted_pairs : t -> Jp_relation.Counted_pairs.t
[@@jp.lint.allow "unused-export" "snapshot the dynamic tests compare with a static recomputation"]
(** Snapshot in the static result representation (for equality checks
    against recomputation). *)
