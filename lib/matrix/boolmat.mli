(** Bit-packed boolean matrices.

    The fast-matrix-multiplication stand-in of this reproduction: a boolean
    product C = A·B is computed as, for every row i, the OR of the B-rows
    selected by the set bits of A's row i.  Each word-level OR processes 62
    columns at once, so the kernel runs at roughly M(u,v,w)/62 word
    operations — the same constant-factor acceleration role that
    Eigen+MKL's SIMD SGEMM plays in the paper (Section 6).

    The engines multiply their heavy operands through [Jp_tile], which
    runs these same row kernels tile by tile; {!mul} and {!count_product}
    here are the single-domain whole-matrix references that the tests
    compare [Jp_tile] against and that {!Cost.calibrate} times. *)

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

val mul : t -> t -> t
(** Boolean matrix product over the OR/AND semiring.  Raises
    [Invalid_argument] naming both operand shapes when the inner
    dimensions disagree. *)

val count_product : t -> t -> Intmat.t
(** [count_product a b] with [a : u×v] and [b : w×v] (note: {e both} over
    the same inner dimension, i.e. [b] is the transpose of the right
    operand) is the u×w {e integer} product C with
    [C(i,l) = |row_a(i) ∩ row_b(l)|] — the count matrix product
    A·Bᵀ computed as word-AND + popcount.  This is the kernel the
    counted join-project uses: 62 multiply-adds per word operation, the
    same bit-slicing advantage SIMD SGEMM enjoys in the paper.  Raises
    [Invalid_argument] naming both operand shapes when the shared inner
    dimensions disagree. *)

val row_nnz : t -> int -> int

val nnz : t -> int

val iter_row : t -> int -> (int -> unit) -> unit
(** [iter_row m i f] applies [f] to every column with a 1 in row [i]. *)
