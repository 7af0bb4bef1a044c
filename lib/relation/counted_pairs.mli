(** Join-project output with witness multiplicities.

    For every pair (x, z) in the projection, the number of join witnesses y
    — i.e. the entries of the count matrix product of Section 2.2.  Set
    similarity thresholds (≥ c), ordered enumeration (sort by count) and
    set containment (count = |set|) are all filters over this structure. *)

type t

val of_rows_unchecked : (int array * int array) array -> t

val src_count : t -> int
[@@jp.lint.allow
  "unused-export"
  "row access, the counted twin of Pairs.src_count; tests read engine \
   rows through the checked constructor"]

val row : t -> int -> int array * int array
[@@jp.lint.allow
  "unused-export"
  "row access, the counted twin of Pairs.row; tests read engine rows \
   through the checked constructor"]

val iter : (int -> int -> int -> unit) -> t -> unit
(** [iter f t] calls [f x z multiplicity]. *)
