(** Tiled, memory-bounded heavy-part matrix multiplication.

    The flat {!Jp_matrix.Boolmat} kernels materialize both operand
    matrices in full, which makes the heavy part the system's largest
    single allocation and an all-or-nothing unit for parallelism and
    caching.  This module decomposes the same two products into fixed
    2{^k}×2{^k} bit-packed tiles (MatFast-style block partitioning):

    - {b Scheduling}: output tiles are the work-stealing unit — one
      {!Jp_parallel.Pool} chunk per tile — so load balance no longer
      depends on row skew.
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

    Results are bit-equal to the flat kernels for every tile size,
    budget and domain count: boolean tiles OR-blit into the result rows
    at their column offset ({!Jp_util.Bitset.union_into_at}), count
    tiles own disjoint cell blocks, and partial sums over inner tiles
    are exact. *)

module Boolmat = Jp_matrix.Boolmat
module Intmat = Jp_matrix.Intmat
module Cancel = Jp_util.Cancel

type config = private {
  tile_bits : int;
  budget_bytes : int option;
  force : bool;
}
(** [tile_bits] is k of the 2{^k}×2{^k} tile shape; [budget_bytes]
    bounds the operand-tile resident set ([None] = unbounded: every
    operand tile stays resident once built).  [force] is advisory for
    callers that gate on {!Jp_matrix.Cost.should_tile}: it asks them to
    tile regardless of the size threshold (this module itself always
    tiles). *)

val default_tile_bits : int
(** 9: 512×512 tiles, ≈ 33 KiB of bitset words per boolean tile. *)

val config : ?tile_bits:int -> ?budget_bytes:int -> ?force:bool -> unit -> config
(** [tile_bits] is clamped to [[4, 20]]; [force] defaults to [false]. *)

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

  val to_boolmat : t -> Boolmat.t
  (** Materialize the whole operand — what the flat kernels multiply. *)

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
    u×w count matrix, bit-equal to the flat kernel: inner-tile partial
    counts are integer sums, so accumulation order cannot change the
    result.  Same capability surface as {!mul}. *)
