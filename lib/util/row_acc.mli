(** Per-worker output-row accumulator for stamp-dedup merges.

    The Section-6 dedup vector, packaged with everything a merge needs to
    turn one x value's candidate z ids into its finished output row: the
    stamp vector over dom(z), the candidate buffer, a zeroed bitset over
    dom(z) and, for the counting variant, a multiplicity array.  One
    accumulator serves any number of consecutive rows ({!start} begins a
    new one; stamps never need clearing), so engines take one per worker
    ({!borrow}) and reuse it across every chunk that worker runs.

    {b Split rows.}  A heavy x's row in Algorithm 1 is mostly its row of
    the heavy product.  Such a row keeps the product's heavy z in a
    per-accumulator column scratch (bits, or counts).  {!start_split}
    begins an empty boolean one, and {!or_words} ORs bit rows into it
    (the boolean 2-path ORs in the S⁺ row of each of x's heavy y);
    {!start_split_counts} begins a counting one by copying a product
    row, and {!start_planes} an empty saturating one, into which
    {!saturate_words} adds bit rows (the set-similarity join adds the
    S⁺ row of each of x's heavy y).  The caller's words are never
    written.
    Every later id that has a column
    (index ≥ 0) sets or counts that column; only the others go through
    the stamps.  The two halves are disjoint, so the row is emitted as a
    linear merge of the set columns, read in ascending heavy-z order,
    with the sorted stamped ids: no per-bit stamp and no dedup pass.

    {b Rows of one or two lists.}  Most x of a sparse join have one or
    two neighbours.  Their row needs no accumulator: it is the list
    itself ({!one_list_into}) or the union of two ({!two_lists_into}),
    written straight into the caller's buffer with no stamp and no sort.
    Callers that know a row's list count up front (the WCOJ expansion,
    the light merge's plain rows) write such rows themselves and start
    an accumulator row only for three lists or more.  A plain row begun
    by {!start} stamps every id it is given.  The row's ids, and so every
    count a caller derives from list and row lengths (probes, stamp hits
    and misses), are the same either way.

    {b Emitting.}  {!emit_into}, {!emit_counts_into} and {!emit_ge_into}
    append the row at the end of the caller's growable buffer
    ({!Vec.t}, one per output chunk) and return its length, so a merge
    writes all its rows into one flat buffer with no array per row; a
    split row's two halves are merged there.  {!emit} is the same row in a fresh
    array, for callers off the hot path.  The stamped ids come back
    sorted without a general-purpose sort when they can: if the row's
    ids span few bitset words relative to its length (dense rows), their
    bits are set and the words scanned in order straight into the
    buffer, zeroing each as it goes, so the bitset is clean again for the
    next row; otherwise they are copied and sorted in place with
    {!Intsort}.  Either way the row is already duplicate-free, so there
    is no dedup pass.  A row is emitted once; the next {!start} or split
    start begins the next row.

    Not thread-safe: one accumulator per domain. *)

type t

val create : ?counts:bool -> int -> t
(** [create nz] accumulates rows over the id domain [\[0, nz)].  With
    [~counts:true] it also keeps per-id multiplicities for
    {!add_witnesses}/{!emit_counts_into}. *)

val borrow : ?counts:bool -> int -> t
(** [borrow nz] is an accumulator over at least [\[0, nz)] for one
    engine call: one of the calling domain's spares when one is wide
    enough (and counts, with [~counts:true]), otherwise {!create}'s.  A
    spare may span a wider domain, so ids past [nz] are not refused.
    Hand it back with {!release}; an accumulator reused this way costs a
    query no stamp vector of its own. *)

val release : t -> unit
(** [release t] makes [t] a spare of the calling domain (the few most
    recent are kept, and none over more than 2{^20} ids); the caller
    must not use it again. *)

val start : t -> unit
(** Begins a new, empty row with no columns. *)

val start_split : t -> index:int array -> heavy:int array -> unit
(** [start_split t ~index ~heavy] begins an empty boolean split row:
    column [l] stands for id [heavy.(l)] ([heavy] ascending, [index] its
    inverse over the id domain, -1 for ids without a column), held as
    bit [l] of ⌈|heavy| / 62⌉ 62-bit words. *)

val or_words : t -> int array -> int -> int -> unit
(** [or_words t words off n] ORs [words.(off .. off + n - 1)] into the
    first [n] column words of the current boolean split row: bit [b] of
    word [k] sets column [62·k + b].  Raises [Invalid_argument] when the
    row is not a boolean split row or the range does not fit in [words]
    or in the row's column words.  {!size} counts the set columns. *)

val start_split_counts : t -> index:int array -> heavy:int array -> int array -> int
(** [start_split_counts t ~index ~heavy row] begins a counting split
    row (counting accumulators only): [row] holds the counts of the last
    [Array.length row] columns — all of them for a full product row,
    the columns past the diagonal for a triangle's — and the columns
    before it are not held.  Ids added later must not fall in a column
    that is not held ([Invalid_argument]).  Returns the number of
    non-zero counts copied. *)

val start_planes :
  t -> index:int array -> heavy:int array -> first:int -> int -> unit
(** [start_planes t ~index ~heavy ~first k] begins an empty saturating
    split row (counting accumulators only): [k ≥ 1] thermometer planes
    over [heavy]'s columns (plane j holds the columns whose count is at
    least j + 1, ⌈|heavy| / 62⌉ words per plane), holding only the
    columns from [first] on.  {!saturate_words} adds bit rows to it,
    {!close_planes} ends that step, and a later witness of a column
    adds one to it; every add saturates at k, so each column holds
    min(count, k).  Only {!emit_ge_into} at a threshold of at most k
    reads such a row, exactly, since min(h, k) + l ≥ c holds exactly
    when h + l ≥ c for c ≤ k: its heavy columns are plane c − 1's bits.
    Raises [Invalid_argument] when [k < 1] or [first] is outside
    [\[0, |heavy|\]]. *)

val saturate_words : t -> int array -> int -> unit
(** [saturate_words t words off] adds one, saturating, to every column
    whose bit is set in the ⌈|heavy| / 62⌉ words [words.(off ..)] (bit
    [b] of word [w] is column [62·w + b]) on the current plane row,
    reading and writing only the words from the one holding column
    [first] on: [P_j |= P_{j−1} & row] for the planes from the top,
    then [P_0 |= row].  The bits below [first] in that word are not
    cleared until {!close_planes}.  Raises [Invalid_argument] when the
    row is not a plane row or the words do not fit in [words]. *)

val close_planes : t -> int
(** [close_planes t] clears the columns before [first] that
    {!saturate_words} wrote and returns the number of held columns,
    plane 0's bits — what exact counts would hold, as {!size} reports
    it.  Call it once, after the last {!saturate_words} and before the
    first witness.  Raises [Invalid_argument] when the row is not a
    plane row. *)

val add_all : t -> int array -> unit
(** [add_all t zs] adds each candidate of [zs] to the current row; ids
    already in it are absorbed.  On a boolean split row an id with a
    column sets it.  Ids must lie in the accumulator's domain
    ([Invalid_argument]).  Not for a counting split row.  A row takes
    either lists or witnesses, not both. *)

val add_light : t -> int array -> unit
(** {!add_all} for ids the caller knows have no column (a heavy y's
    light-z list): on a split row every id goes through the stamps,
    without the column lookup. *)

val add_witnesses : t -> int array -> unit
(** [add_witnesses t zs] adds one witness for each element of [zs]
    (counting accumulators only); on a counting split row an id with a
    column counts there.  A tight loop: an [Array.iter] closure per
    element costs several times more on dense inputs. *)

val add_witnesses_from : t -> int array -> int -> unit
(** [add_witnesses_from t zs i] adds one witness for each element of
    [zs] from index [i] on: a sorted list's suffix past a bound, without
    copying it. *)

val size : t -> int
(** The number of distinct ids in the current row so far, set columns
    included. *)

val columns : t -> int
(** The number of set columns of the current split row so far (0 for a
    plain row): {!size} less the stamped ids. *)

val emit_into : t -> Vec.t -> int
(** [emit_into t out] appends the current row's distinct ids, strictly
    increasing, to [out] and returns how many it appended. *)

val emit : t -> int array
(** {!emit_into}'s row in a fresh array of exactly as many elements. *)

val one_list_into : Vec.t -> int array -> int
(** [one_list_into out zs] appends the row of one list, [zs] itself
    (strictly increasing), to [out] and returns its length.  No
    accumulator takes part. *)

val two_lists_into : Vec.t -> int array -> int array -> int
(** [two_lists_into out a b] appends the row of two strictly increasing
    lists, their union ({!Sorted.union_into}), to [out] and returns its
    length. *)

val emit_counts_into : t -> Vec.t -> Vec.t -> int
(** [emit_counts_into t zs counts] appends {!emit_into}'s ids to [zs]
    and each one's summed multiplicity to [counts] (counting
    accumulators); returns the row's length. *)

val emit_ge_into : t -> int -> Vec.t -> int
(** [emit_ge_into t c out] appends the current row's ids with a summed
    multiplicity of at least [c], strictly increasing, to [out] and
    returns how many (counting accumulators only).  The set-similarity
    threshold, applied to both halves of a split row before the row is
    written.  On a saturating split row, [c] must not exceed the number
    of planes ([Invalid_argument]). *)
