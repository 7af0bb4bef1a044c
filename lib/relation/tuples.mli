(** Deduplicated sets of k-tuples — the output of star queries Q*{_k}.

    When the component id spaces are small enough that a whole tuple packs
    into one native int (k·⌈log₂ id space⌉ ≤ 62 bits), tuples are kept as
    packed ints in a sorted array: dedup is a sort, memory is one word per
    tuple.  Otherwise a hash set over boxed keys is used.  Construction
    goes through a mutable {!builder}. *)

type t

val count : t -> int
(** Number of distinct tuples. *)

val iter : (int array -> unit) -> t -> unit
(** The callback's array is reused between calls — copy it to keep it.
    Packed representations iterate in ascending packed order. *)

type builder

val create_builder : arity:int -> dims:int array -> builder
(** [dims.(i)] bounds (exclusively) the ids in component [i]. *)

val add : builder -> int array -> unit
(** Records a tuple (duplicates welcome).  The array is copied if needed. *)

val build : builder -> t
(** Deduplicates and freezes.  The builder must not be reused. *)
