(** Bit-packed boolean matrices.

    The storage of the fast-matrix-multiplication stand-in of this
    reproduction: each row is one {!Jp_util.Bitset.t}, so a boolean
    product C = A·B computed as, for every row i, the OR of the B-rows
    selected by the set bits of A's row i processes 62 columns per word
    operation — the constant-factor acceleration that Eigen+MKL's SIMD
    SGEMM plays in the paper (Section 6).

    This module holds no kernel: every product runs through [Jp_tile],
    whose operand tiles and boolean results are these matrices. *)

type t

val create : rows:int -> cols:int -> t
(** All-zeros boolean matrix. *)

val rows : t -> int

val cols : t -> int

val set : t -> int -> int -> unit

val mem : t -> int -> int -> bool

val row : t -> int -> Jp_util.Bitset.t
(** The backing bitset of a row (shared, not copied). *)

val of_adjacency : rows:int -> cols:int -> (int -> int array) -> t
(** [of_adjacency ~rows ~cols adj] builds the matrix whose row [i] has ones
    exactly at positions [adj i]. *)

val row_nnz : t -> int -> int

val nnz : t -> int

val iter_row : t -> int -> (int -> unit) -> unit
(** [iter_row m i f] applies [f] to every column with a 1 in row [i]. *)

val saturate_rows :
  Jp_util.Bitset.t array -> int -> from:int -> sel:Jp_util.Bitset.t -> t -> unit
(** [saturate_rows planes off ~from ~sel m] adds the rows of [m] that
    [sel] selects to the thermometer [planes], as
    {!Jp_util.Bitset.saturate_selected} does: the row-OR step of
    [Jp_tile]'s saturating plane product. *)
