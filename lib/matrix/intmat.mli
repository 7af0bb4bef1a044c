(** Dense [int] count matrices.

    The join-project algorithms need the product of two 0/1 adjacency
    matrices *with multiplicities*: entry (a,c) of the product counts the
    witnesses y connecting a and c (used directly by set-similarity
    thresholds and ordered enumeration, Section 4).  Rows are unboxed
    [int array]s.  This module holds no kernel: {!Tile.count_product}
    and {!Tile.count_upper} write these matrices. *)

type t = private { data : int array array; rows : int; cols : int }

val create : rows:int -> cols:int -> t

val create_upper : int -> t
(** [create_upper n] is an all-zeros strict upper triangle of an n×n
    matrix: row [i] stores only the cells of columns [i+1 .. n-1], at
    positions [0 .. n-i-2], so the triangle holds n(n−1)/2 cells.  Its
    {!row}s are read through that offset. *)

val row : t -> int -> int array
(** The backing array of a row (shared, not copied): every column of a
    full matrix, the columns past the diagonal of a triangle. *)
