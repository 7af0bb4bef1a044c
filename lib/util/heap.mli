(** Binary min-heap over integer priorities.

    Used for top-k enumeration (keep the k best seen so far, evicting
    through the minimum) and as a general scheduling primitive.  Payloads
    are arbitrary; priorities are ints. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val push : 'a t -> priority:int -> 'a -> unit

val min_priority : 'a t -> int
(** Raises [Invalid_argument] on an empty heap. *)

val pop_min : 'a t -> int * 'a
(** Removes and returns the minimum-priority entry (ties broken
    arbitrarily).  Raises [Invalid_argument] on an empty heap. *)

val to_list : 'a t -> (int * 'a) list
(** All entries, unspecified order. *)
