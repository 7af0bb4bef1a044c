(** Deduplicated join-project output: a set of (x, z) pairs.

    Stored CSR-style — for every x id a strictly increasing array of z ids —
    which makes |OUT| counting O(src ids), enumeration allocation-free, and
    set-equality comparisons in tests trivial.  This is the "implicit
    factorization of the output" the paper credits for the space efficiency
    of the matrix representation (Section 7.2). *)

type t

val of_rows_unchecked : int array array -> t
(** Trusted variant for hot paths (rows already sorted by construction). *)

val empty : int -> t
(** [empty n] has [n] (empty) rows. *)

val src_count : t -> int

val count : t -> int
(** Total number of pairs, i.e. |OUT|. *)

val row : t -> int -> int array
(** Shared array — do not mutate. *)

val mem : t -> int -> int -> bool

val iter : (int -> int -> unit) -> t -> unit

val equal : t -> t -> bool
(** Same pair sets (row counts padded with empties are ignored). *)

val union : t -> t -> t
(** Set union; rows are merged pairwise. *)
