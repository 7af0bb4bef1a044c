(** Dense [int] count matrices.

    The join-project algorithms need the product of two 0/1 adjacency
    matrices *with multiplicities*: entry (a,c) of the product counts the
    witnesses y connecting a and c (used directly by set-similarity
    thresholds and ordered enumeration, Section 4).  Rows are unboxed
    [int array]s; the multiply is a blocked i-k-j saxpy that skips zero
    entries of the left matrix (heavy adjacency matrices are still
    sparse-ish in practice). *)

type t = private { data : int array array; rows : int; cols : int }

val create : rows:int -> cols:int -> t

val set : t -> int -> int -> int -> unit

val row : t -> int -> int array
(** The backing array of a row (shared, not copied). *)

val mul : ?domains:int -> t -> t -> t
