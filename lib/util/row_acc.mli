(** Per-worker output-row accumulator for stamp-dedup merges.

    The Section-6 dedup vector, packaged with everything a merge needs to
    turn one x value's candidate z ids into its finished output row: the
    stamp vector over dom(z), the candidate buffer, a zeroed bitset over
    dom(z) and, for the counting variant, a multiplicity array.  One
    accumulator serves any number of consecutive rows ({!start} begins a
    new one; stamps never need clearing), so engines allocate one per
    worker and reuse it across every chunk that worker runs.

    {!emit} hands the row back sorted without a general-purpose sort when
    it can: if the row's ids span few bitset words relative to its length
    (dense rows), it sets the candidates' bits and scans the words in
    order, zeroing each as it goes, so the bitset is clean again for the
    next row; otherwise it copies the candidates once and sorts the copy
    with {!Intsort}.  Either way the row is already duplicate-free, so
    there is no dedup pass.

    Not thread-safe: one accumulator per domain. *)

type t

val create : ?counts:bool -> int -> t
(** [create nz] accumulates rows over the id domain [\[0, nz)].  With
    [~counts:true] it also keeps per-id multiplicities for
    {!add_count}/{!emit_counts}. *)

val start : t -> unit
(** Begins a new, empty row. *)

val add : t -> int -> unit
(** [add t z] adds candidate [z] to the current row; repeats are absorbed
    by the stamp vector.  [z] must lie in the accumulator's domain. *)

val add_all : t -> int array -> unit
(** [add_all t zs] is [Array.iter (add t) zs], as one tight loop. *)

val add_count : t -> int -> int -> unit
(** [add_count t z k] adds [k] witnesses for [z] to the current row
    (counting accumulators only). *)

val add_witnesses : t -> int array -> unit
(** [add_witnesses t zs] adds one witness for each element of [zs]
    (counting accumulators only).  Like {!add_all}, a tight loop: an
    [Array.iter] closure per element costs several times more on dense
    inputs. *)

val add_witnesses_from : t -> int array -> int -> unit
(** [add_witnesses_from t zs i] adds one witness for each element of
    [zs] from index [i] on: a sorted list's suffix past a bound found by
    {!Sorted.lower_bound}, without copying it. *)

val size : t -> int
(** The number of distinct ids in the current row so far. *)

val emit : t -> int array
(** The current row's distinct ids, strictly increasing, in a fresh
    array of exactly as many elements. *)

val emit_counts : t -> int array * int array
(** [(zs, counts)]: {!emit}'s ids and each one's summed multiplicity. *)

val emit_ge : t -> int -> int array
(** [emit_ge t c]: the current row's ids with a summed multiplicity of
    at least [c], strictly increasing (counting accumulators only).  The
    set-similarity threshold, applied before the row is materialized. *)
