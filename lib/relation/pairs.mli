(** Deduplicated join-project output: a set of (x, z) pairs.

    Stored in compressed sparse rows: one [offsets] array of
    [src_count + 1] ints and one flat [data] buffer holding every row's z
    ids, strictly increasing within a row, rows in x order; row x is ids
    [offsets.(x) .. offsets.(x + 1) - 1].  Ids are dictionary codes
    below the size of their domain, so [data] packs them ({!ids}): 16
    bits each when the domain is at most 2{^16}, 32 bits up to 2{^31}
    (past that, [Invalid_argument]), a quarter or half the bytes of an
    [int array], in a block the GC does not scan.
    There is no array per row, so |OUT| counting is O(1), enumeration
    allocation-free, and a result is two heap blocks however many rows
    it has.  This is the "implicit factorization of the output" the
    paper credits for the space efficiency of the matrix representation
    (Section 7.2).

    Engines write their rows straight into per-chunk buffers ({!chunk})
    and place the chunks with {!of_chunks}; {!of_rows_unchecked}
    converts rows built one array at a time (baselines and other cold
    producers).
    {!row} copies; {!row_length}, {!iter_row}, {!iter}, {!mem},
    {!count}, {!equal} and {!union} read the flat layout in place. *)

type t

val of_rows_unchecked : int array array -> t
(** Trusted converting constructor (rows already strictly increasing):
    packs the rows into the flat layout. *)

val of_chunks : lengths:int array -> bound:int -> Jp_util.Vec.t array -> t
(** [of_chunks ~lengths ~bound chunks]: the rows of ids [0, n), where
    [lengths] has [n + 1] cells, row x has [lengths.(x + 1)] ids
    ([lengths.(0) = 0]), and the rows' ids, all below [bound] (the z
    domain's size), lie in [chunks] concatenated, rows in x order.  One
    prefix sum turns [lengths] into the offsets in place (the result
    owns it), and {!gather} packs the chunks.  Trusted: every row must
    be strictly increasing. *)

val chunk : unit -> Jp_util.Vec.t
(** An empty output buffer for {!of_chunks} (and for
    {!Counted_pairs.of_chunks}): one of the calling domain's spares when
    it has one, otherwise a fresh buffer with room for a chunk's first
    rows.  It belongs to the caller until it is gathered. *)

type ids
(** A packed buffer of ids in [\[0, 2{^31})], 16 or 32 bits each. *)

val get : ids -> int -> int
(** [get ids i] is the [i]-th id. *)

val gather : bound:int -> Jp_util.Vec.t array -> int -> ids
(** [gather ~bound chunks total] packs the chunks' contents, in order,
    into a buffer of exactly [total] ids, 16 bits each when
    [bound <= 2{^16}] and 32 bits otherwise ([Invalid_argument] if the
    chunks hold another number of ids, an id falls outside its width,
    or [bound > 2{^31}]), one pass per chunk, and hands the chunks back
    to the calling domain's spares (a few, none past 2{^20} ids): the
    caller must not use them again.
    Exact-size results and reused buffers keep a query's output from
    costing a regrown (and discarded) buffer on the major heap. *)

val empty : int -> t
(** [empty n] has [n] (empty) rows. *)

val src_count : t -> int

val count : t -> int
(** Total number of pairs, i.e. |OUT|. *)

val row : t -> int -> int array
(** A fresh copy of row x. *)

val row_length : t -> int -> int

val iter_row : (int -> unit) -> t -> int -> unit
(** [iter_row f t x] calls [f z] for every z of row x, ascending. *)

val mem : t -> int -> int -> bool

val iter : (int -> int -> unit) -> t -> unit

val equal : t -> t -> bool
(** Same pair sets (row counts padded with empties are ignored). *)

val union : t -> t -> t
(** Set union; rows are merged pairwise. *)
