(** The heavy-part matrix multiplication kernel, tiled and
    memory-bounded.

    Every heavy product the engines build runs here: the counted
    2-path's count product, the set-similarity join's exact triangle of
    A·Aᵀ, BSI's boolean product and the star's V·W.  (The boolean
    2-path and the set-similarity join's saturating planes build no
    product: their merges OR, or saturate, S⁺ bit rows into each heavy
    x's row themselves.)  There are two tile bodies.  The row-OR body
    ORs the [b] rows each [a] row selects into that result row: {!mul}
    writes the whole result and {!mul_rows} streams result rows to a
    consumer.  The count body adds one AND+popcount per cell:
    {!count_product} and the exact strict upper triangle
    {!count_upper}.
    The product is decomposed into bit-packed tiles (MatFast-style block
    partitioning) whose shape is fitted to the product:

    - {b Shape}: the tile side is the smallest 2{^k} ≥ max(u, w),
      between 2{^4} and the config's cap 2{^tile_bits}; so a product no
      wider than the cap is a single tile.  With [domains > 1] the side
      halves until there are at least 2·domains scheduled output tiles
      (or it reaches 2{^4}); {!count_upper} counts only the tiles on or
      above the diagonal.  Without a budget the inner dimension is one
      block, so every count cell is one AND+popcount over whole rows;
      with a budget inner blocks are as wide as the side.
    - {b Scheduling}: output tiles are the work-stealing unit — one
      {!Jp_parallel.Pool} chunk per tile.
    - {b Memory}: operand tiles are built on demand from an adjacency
      {!Source} and kept in a bounded resident store; when a byte budget
      is set, LANDLORD-style eviction rebuilds cold tiles instead of
      holding both operands resident, so products larger than the budget
      stream instead of OOM-ing.
    - {b Capabilities}: one [Jp_obs] span and one optional cancel poll
      {e per tile} — never per word (jp_lint's [hot-poll] cadence); a
      guard's budget is the engine's business, checked around the
      product, not inside it.  [tile.*] counters
      track tile builds / store hits / evictions / products and the
      [tile.peak_bytes] high-water mark; the resident footprint itself
      is the [tile.resident_bytes] gauge ({!Jp_obs.G.tile_bytes}).

    Results are bit-equal to the plain whole-matrix products for every
    cap, budget and domain count: boolean column
    tiles are a whole number of 62-bit words wide, so each output tile
    ORs straight into words of the result rows that no other tile
    touches ({!Jp_util.Bitset.union_into_at}); count tiles add into
    their own disjoint cell blocks, and partial sums over inner blocks
    are exact. *)

module Cancel = Jp_util.Cancel

type config = private { tile_bits : int; budget_bytes : int option }
(** [tile_bits] caps the fitted tile side at 2{^tile_bits};
    [budget_bytes] bounds the operand-tile resident set ([None] =
    unbounded: every operand tile stays resident once built). *)

val config : ?tile_bits:int -> ?budget_bytes:int -> unit -> config
(** [tile_bits] is clamped to [[4, 20]] and defaults to 11: products up
    to 2048 on a side — every heavy product of the bundled presets at
    full scale — are a single tile at [domains = 1]; a boolean product
    wider than the cap rescans A once per column tile.  [config ()] is
    what the engines use when a caller passes no [?tile]. *)

(** Lazy operand views: shape plus a row-adjacency function, so tiles
    can be (re)built on demand without ever materializing the full
    operand matrix. *)
module Source : sig
  type t

  val of_adjacency :
    rows:int -> cols:int -> (int -> (int -> unit) -> unit) -> t
  (** [of_adjacency ~rows ~cols adj] views row [i] as ones at the
      positions [adj i f] calls [f] on (each in [[0, cols)], order
      irrelevant).  [adj] must be pure — it is re-invoked whenever an
      evicted tile is rebuilt — and, with [domains > 1], safe to call
      from worker domains. *)

  val of_mapped :
    rows:int -> cols:int -> (int -> int array) -> int array -> t
  (** [of_mapped ~rows ~cols list index] is {!of_adjacency} over id
      lists: row [i] holds [index.(b)] for every [b] of [list i] with
      [index.(b) >= 0] (each in [[0, cols)]).  Tiles are built from the
      arrays in one loop, without a closure call per entry — the view of
      a partition's heavy operand.  The same purity rules hold for
      [list] and [index]. *)

  val of_boolmat : Boolmat.t -> t
  (** View an already materialized matrix (tests and benches). *)
end

val mul :
  ?domains:int ->
  ?cancel:Cancel.t ->
  config ->
  Source.t ->
  Source.t ->
  Boolmat.t
(** [mul cfg a b] is the boolean product [a · b] over the OR/AND
    semiring: row i is the OR of the rows of [b] that row i of [a]
    selects.  [cancel] is polled once per tile claim (via the pool).
    Raises [Invalid_argument] naming both shapes when the inner
    dimensions disagree. *)

val mul_rows :
  domains:int ->
  ?cancel:Cancel.t ->
  config ->
  Source.t ->
  Source.t ->
  (int -> Jp_util.Bitset.t -> unit) ->
  unit
(** [mul_rows ~domains cfg a b f] streams [mul cfg a b]: the same tile
    body computes the result rows a band at a time into one reused
    buffer, fitted to stay under 1 MiB, and [f i row] runs for every
    row [i], ascending, on the calling domain.  [row] is the buffer's,
    cleared when [f] returns.  Each band is one pool round, so a product
    up to the bound is one round and a larger one adds at most one per
    MiB of result words, which the stream clears and scans anyway.
    [cancel] is polled once per tile claim; errors as {!mul}. *)

val count_product :
  ?domains:int ->
  ?cancel:Cancel.t ->
  config ->
  Source.t ->
  Source.t ->
  Intmat.t
(** [count_product cfg a b] with [a : u×v] and [b : w×v] (both over the
    same inner dimension, i.e. [b] is the transpose of the right
    operand) is the u×w count matrix [C(i,l) = |row_a(i) ∩ row_b(l)|],
    the integer product A·Bᵀ computed as word-AND + popcount: partial
    counts over inner blocks are integer sums, so accumulation order
    cannot change the result.  An inner block with an empty operand tile
    is skipped (an empty A tile before its B tile is built).  Same
    capability surface as {!mul}. *)

val count_upper :
  ?domains:int ->
  ?cancel:Cancel.t ->
  config ->
  Source.t ->
  Intmat.t
(** [count_upper cfg a] with [a : u×v] is the strict upper triangle of
    [a·aᵀ], stored as one ({!Intmat.create_upper}, u(u−1)/2 cells, not
    u²): row i holds only the columns l > i, at position l − i − 1, and
    cell (i, l) equals [count_product cfg a a]'s.  The same tiles and
    shape as {!count_product}, but output tiles below the diagonal are
    never scheduled, diagonal tiles compute only the columns past their
    row, and both sides of the product share one operand tile per
    block — about half the word operations of the full product.  Same
    capability surface as {!mul}. *)
