(** Algebra on strictly-increasing [int array]s.

    Sorted adjacency lists are the universal currency of the join engines:
    leapfrog intersection, merge-union deduplication, and galloping
    (exponential-probe) search all live here.  Every input array is assumed
    strictly increasing; outputs are strictly increasing. *)

val mem : int array -> int -> bool
(** Binary search membership. *)

val lower_bound : int array -> int -> int
(** [lower_bound a x] is the least index [i] with [a.(i) >= x], or
    [Array.length a] if none. *)

val gallop : int array -> start:int -> int -> int
(** [gallop a ~start x] is the least index [i >= start] with [a.(i) >= x],
    found by exponential probing then binary search — O(log distance). *)

val intersect : int array -> int array -> int array
(** Set intersection.  Switches between linear merge and galloping depending
    on the size ratio, as in leapfrog/EmptyHeaded-style engines. *)

val intersect_count : int array -> int array -> int
(** Cardinality of the intersection without materializing it. *)

val union_into : int array -> int array -> int array -> int -> int
(** [union_into a b out pos] writes the set union of [a] and [b] to
    [out] from [pos] on (room for [length a + length b] ids) in one
    linear merge, and returns its length. *)

val subset : int array -> int array -> bool
(** [subset a b] is [true] iff every element of [a] occurs in [b]. *)

val intersect_many : int array list -> int array
(** Intersection of all lists, smallest-first for early exit.  The
    intersection of the empty list is undefined and raises
    [Invalid_argument]. *)
