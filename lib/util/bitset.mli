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

val width : t -> int
(** Number of addressable bit positions. *)

val word_count : t -> int
(** Number of backing words; the unit in which per-word operations
    ([union_into], [inter_count], ...) are counted by the observability
    layer's MM word-op counters. *)

val create : int -> t
(** [create n] is an all-zeros bitset of width [n]. *)

val set : t -> int -> unit

val unset : t -> int -> unit

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

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] ANDs [src] into [dst].  Widths must match. *)

val inter_count : t -> t -> int
(** Population count of the intersection, without materializing it. *)

val iter : (int -> unit) -> t -> unit
(** [iter f t] applies [f] to every set position in increasing order. *)

val to_list : t -> int list

val of_sorted_array : int -> int array -> t
(** [of_sorted_array n positions] sets each listed position (positions need
    not actually be sorted; they must be [< n]). *)

val copy : t -> t

val equal : t -> t -> bool
