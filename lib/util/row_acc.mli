(** Per-worker output-row accumulator for stamp-dedup merges.

    The Section-6 dedup vector, packaged with everything a merge needs to
    turn one x value's candidate z ids into its finished output row: the
    stamp vector over dom(z), the candidate buffer, a zeroed bitset over
    dom(z) and, for the counting variant, a multiplicity array.  One
    accumulator serves any number of consecutive rows ({!start} begins a
    new one; stamps never need clearing), so engines allocate one per
    worker and reuse it across every chunk that worker runs.

    {b Split rows.}  A heavy x's row in Algorithm 1 is mostly its row of
    the heavy product.  {!start_split} and {!start_split_counts} begin
    such a row by copying the product row into a per-accumulator column
    scratch (bits, or counts) over the product's heavy z; the shared
    product is never written.  Every later id that has a column
    (index ≥ 0) sets or counts that column; only the others go through
    the stamps.  The two halves are disjoint, so the row is emitted as a
    linear merge of the set columns, read in ascending heavy-z order,
    with the sorted stamped ids: no per-bit stamp, no dedup pass, and
    the output row is the only allocation.

    {!emit} hands the stamped ids back sorted without a general-purpose
    sort when it can: if the row's ids span few bitset words relative to
    its length (dense rows), it sets the candidates' bits and scans the
    words in order, zeroing each as it goes, so the bitset is clean again
    for the next row; otherwise it sorts the candidates with {!Intsort}.
    Either way the row is already duplicate-free, so there is no dedup
    pass.  A row is emitted once; the next {!start} or split start
    begins the next row.

    Not thread-safe: one accumulator per domain. *)

type t

val create : ?counts:bool -> int -> t
(** [create nz] accumulates rows over the id domain [\[0, nz)].  With
    [~counts:true] it also keeps per-id multiplicities for
    {!add_witnesses}/{!emit_counts}. *)

val start : t -> unit
(** Begins a new, empty row with no columns. *)

val start_split : t -> index:int array -> heavy:int array -> Bitset.t -> int
(** [start_split t ~index ~heavy row] begins a boolean split row: column
    [l] stands for id [heavy.(l)] ([heavy] ascending, [index] its
    inverse over the id domain, -1 for ids without a column), and the
    columns start as a copy of [row]'s bits ([row] as wide as [heavy]).
    Returns the number of columns the copy set. *)

val start_split_counts : t -> index:int array -> heavy:int array -> int array -> int
(** [start_split_counts t ~index ~heavy row] begins a counting split
    row (counting accumulators only): [row] holds the counts of the last
    [Array.length row] columns — all of them for a full product row,
    the columns past the diagonal for a triangle's — and the columns
    before it are not held.  Ids added later must not fall in a column
    that is not held ([Invalid_argument]).  Returns the number of
    non-zero counts copied. *)

val add_all : t -> int array -> unit
(** [add_all t zs] adds each candidate of [zs] to the current row;
    repeats are absorbed.  On a boolean split row an id with a column
    sets it.  Ids must lie in the accumulator's domain.  Not for a
    counting split row. *)

val add_light : t -> int array -> unit
(** {!add_all} for ids the caller knows have no column (a heavy y's
    light-z list): every id goes through the stamps, without the column
    lookup. *)

val add_witnesses : t -> int array -> unit
(** [add_witnesses t zs] adds one witness for each element of [zs]
    (counting accumulators only); on a counting split row an id with a
    column counts there.  A tight loop: an [Array.iter] closure per
    element costs several times more on dense inputs. *)

val add_witnesses_from : t -> int array -> int -> unit
(** [add_witnesses_from t zs i] adds one witness for each element of
    [zs] from index [i] on: a sorted list's suffix past a bound found by
    {!Sorted.lower_bound}, without copying it. *)

val size : t -> int
(** The number of distinct ids in the current row so far, set columns
    included. *)

val emit : t -> int array
(** The current row's distinct ids, strictly increasing, in a fresh
    array of exactly as many elements. *)

val emit_counts : t -> int array * int array
(** [(zs, counts)]: {!emit}'s ids and each one's summed multiplicity. *)

val emit_ge : t -> int -> int array
(** [emit_ge t c]: the current row's ids with a summed multiplicity of
    at least [c], strictly increasing (counting accumulators only).  The
    set-similarity threshold, applied to both halves of a split row
    before the row is materialized. *)
