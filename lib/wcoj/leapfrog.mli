(** Leapfrog k-ary intersection (Veldhuizen's leapfrog triejoin, restricted
    to a single shared variable — which is all a star query needs).

    Each relation contributes one strictly increasing array; the iterators
    chase each other's max with galloping search, giving
    O(k · min_len · log(max_len/min_len)) in the worst case and far less
    when the arrays are skewed. *)

val iter : int array array -> (int -> unit) -> unit
(** Applies the callback to every common element in increasing order,
    without materializing the intersection.  [iter [||]] raises
    [Invalid_argument]. *)
