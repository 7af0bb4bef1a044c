(** Fixed-width mutable bitsets over native [int] words.

    Words carry 62 payload bits so that every operation stays on unboxed
    native ints.  Bitsets are the backbone of the boolean matrix product
    (each matrix row is one bitset) and of the EmptyHeaded-like baseline
    engine, where per-word [lor]/[land] provide the 62-way data parallelism
    that plays the role of SIMD in the paper's C++ prototype. *)

type t

val bits_per_word : int
(** 62: payload bits per backing word. *)

val payload_words : int -> int
(** [payload_words n] is the number of words holding [n] bits — a
    bitset of width [n] has one more, always zero.  The unit of the
    MM word-op counters. *)

val create : int -> t
(** [create n] is an all-zeros bitset of width [n]. *)

val set : t -> int -> unit

val mem : t -> int -> bool

val clear : t -> unit
(** Zeroes every bit, keeping the width. *)

val count : t -> int
(** Population count. *)

val is_empty : t -> bool

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] ORs [src] into [dst].  Widths must match. *)

val union_into_at : dst:t -> int -> t -> unit
(** [union_into_at ~dst off src] ORs [src] into [dst] with its bit 0
    landing at position [off], which must be a multiple of
    {!bits_per_word} with [off + width src <= width dst]; raises
    [Invalid_argument] otherwise.  Writes only the words that hold bits
    [[off, off + width src)], so callers may OR disjoint word ranges of
    one [dst] from different domains.  The blit behind the tiled
    boolean product: a tile row merges into whole words of the full
    result row without per-bit iteration. *)

val saturate_selected : t array -> int -> from:int -> t -> t array -> unit
(** [saturate_selected planes off ~from sel rows] adds, for every
    position [k] that [sel] sets, one to the count of every column
    [rows.(k)] sets, saturating at [Array.length planes]: [planes] are
    thermometer planes (plane j holds the columns with a count of at
    least j + 1), and column [b] of a row is column [off + b] of the
    planes.  Only each row's payload words from [from] on are added,
    and only the plane words they land on are written, so callers may
    update disjoint word ranges of the same planes from different
    domains.  [off] must be a multiple of {!bits_per_word}, and every
    selected row must exist and fit within every plane from [off];
    raises [Invalid_argument] otherwise.  With one plane this ORs the
    selected rows in, as {!union_into_at} from word [from] would. *)

val clear_word_below : t -> int -> unit
(** [clear_word_below t i] clears the positions of [i]'s backing word
    below [i] ([0 <= i <= width]): the masking step after whole-word
    ORs that start in the middle of a word. *)

val set_mapped : t -> lo:int -> int array -> int array -> int
(** [set_mapped t ~lo ids index] sets position [index.(b) - lo] for
    every [b] of [ids] whose [index.(b)] lies in [[lo, lo + width t)],
    and returns how many [b] have [index.(b) >= 0] — one row of a tile
    built from an id list through a column index, in one loop. *)

val blit_count : t -> int array -> int -> int
(** [blit_count t dst at] copies [t]'s backing words, the spare trailing
    one included, to [dst] from index [at] and returns {!count}[ t], in
    one pass.  [dst] must hold [payload_words width + 1] words from
    [at]; raises [Invalid_argument] otherwise.  Seeds a scratch row from
    a shared matrix row without writing the matrix. *)

val popcount : int -> int
(** The number of set bits of a word (of its 62 payload bits). *)

val inter_count : t -> t -> int
(** Population count of the intersection, without materializing it. *)

val iter : (int -> unit) -> t -> unit
(** [iter f t] applies [f] to every set position in increasing order. *)

val of_sorted_array : int -> int array -> t
(** [of_sorted_array n positions] sets each listed position (positions need
    not actually be sorted; they must be [< n]). *)
