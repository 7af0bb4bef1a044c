(** Growable array of unboxed [int]s.

    The workhorse buffer for join outputs and adjacency construction:
    push with amortized O(1), in-place sort/dedup of the live prefix, and
    {!to_array}, which copies the contents into an exact-length array. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val get : t -> int -> int
(** [get v i] is the [i]-th element; bounds-checked. *)

val push : t -> int -> unit

val push2 : t -> int -> int -> unit
(** [push2 v a b] appends two elements; used for flat pair encoding. *)

val reserve : t -> int -> int array
(** [reserve v n] makes room for [n] more elements and returns the
    backing store, valid until the next growth: the caller writes the
    new elements from index [length v] on and then counts them with
    {!advance}.  It grows the store by half, not double, since such
    buffers are kept for reuse.  [reserve v 0] is the store as it stands
    (it may be longer than [length v]). *)

val advance : t -> int -> unit
(** [advance v n] extends the length by [n] elements already written
    through {!reserve}'s store. *)

val clear : t -> unit
(** Resets length to zero, keeping capacity. *)

val truncate : t -> int -> unit
(** [truncate v n] shrinks the length to [n] (which must be [<= length]).
    Used as a stack-frame pop by tree traversals. *)

val to_array : t -> int array
(** Fresh array copy of the contents. *)

val sort_dedup : t -> unit
(** Sorts ascending and removes duplicates in place, on the backing store
    itself (no copy). *)

val iter : (int -> unit) -> t -> unit
