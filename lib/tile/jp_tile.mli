(** The heavy-part matrix multiplication kernel, tiled and
    memory-bounded.

    Every heavy boolean and count product in the engines runs here.
    The product is decomposed into bit-packed tiles (MatFast-style block
    partitioning) whose shape is fitted to the product:

    - {b Shape}: the tile side is the smallest 2{^k} ≥ max(u, w),
      between 2{^4} and the config's cap 2{^tile_bits}; so a product no
      wider than the cap is a single tile.  With [domains > 1] the side
      halves until there are at least 2·domains output tiles (or it
      reaches 2{^4}).  Without a budget the inner dimension is one
      block, so every count cell is one AND+popcount over whole rows;
      with a budget inner blocks are as wide as the side.
    - {b Scheduling}: output tiles are the work-stealing unit — one
      {!Jp_parallel.Pool} chunk per tile.
    - {b Memory}: operand tiles are built on demand from an adjacency
      {!Source} and kept in a bounded resident store; when a byte budget
      is set, LANDLORD-style eviction rebuilds cold tiles instead of
      holding both operands resident, so products larger than the budget
      stream instead of OOM-ing.
    - {b Capabilities}: one [Jp_obs] span and one optional cancel poll /
      guard checkpoint {e per tile} — never per word (jp_lint's [hot-poll] cadence).  [tile.*] counters
      track tile builds / store hits / evictions / products and the
      resident footprint ([tile.bytes] + its [tile.peak_bytes]
      high-water mark, mirrored into the [tile.resident_bytes] gauge).

    Results are bit-equal to the whole-matrix {!Jp_matrix.Boolmat}
    references for every cap, budget and domain count: boolean column
    tiles are a whole number of 62-bit words wide, so each output tile
    ORs straight into words of the result rows that no other tile
    touches ({!Jp_util.Bitset.union_into_at}); count tiles add into
    their own disjoint cell blocks, and partial sums over inner blocks
    are exact. *)

module Boolmat = Jp_matrix.Boolmat
module Intmat = Jp_matrix.Intmat
module Cancel = Jp_util.Cancel

type config = private { tile_bits : int; budget_bytes : int option }
(** [tile_bits] caps the fitted tile side at 2{^tile_bits};
    [budget_bytes] bounds the operand-tile resident set ([None] =
    unbounded: every operand tile stays resident once built). *)

val default_tile_bits : int
(** 11: products up to 2048 on a side — every heavy product of the
    bundled presets at full scale — are a single tile at
    [domains = 1]; a boolean product wider than the cap rescans A once
    per column tile. *)

val config : ?tile_bits:int -> ?budget_bytes:int -> unit -> config
(** [tile_bits] is clamped to [[4, 20]].  [config ()] is what the
    engines use when a caller passes no [?tile]. *)

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

  val of_boolmat : Boolmat.t -> t
  (** View an already materialized matrix (tests and benches). *)

  val rows : t -> int

  val cols : t -> int
end

val mul :
  ?domains:int ->
  ?cancel:Cancel.t ->
  ?checkpoint:(unit -> unit) ->
  config ->
  Source.t ->
  Source.t ->
  Boolmat.t
(** [mul cfg a b] is the boolean product [a · b], bit-equal to
    [Boolmat.mul] on the materialized operands.  [cancel] is polled once
    per tile claim (via the pool) and [checkpoint] runs once per output
    tile on the computing domain — callers pass budget checks only when
    that is safe for their guard (single-domain).  Raises
    [Invalid_argument] naming both shapes when the inner dimensions
    disagree. *)

val count_product :
  ?domains:int ->
  ?cancel:Cancel.t ->
  ?checkpoint:(unit -> unit) ->
  config ->
  Source.t ->
  Source.t ->
  Intmat.t
(** [count_product cfg a b] with [a : u×v] and [b : w×v] (both over the
    same inner dimension, exactly like [Boolmat.count_product]) is the
    u×w count matrix, bit-equal to [Boolmat.count_product]: partial
    counts over inner blocks are integer sums, so accumulation order
    cannot change the result.  Same capability surface as {!mul}. *)
