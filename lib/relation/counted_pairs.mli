(** Join-project output with witness multiplicities.

    For every pair (x, z) in the projection, the number of join witnesses y
    — i.e. the entries of the count matrix product of Section 2.2.  Set
    similarity thresholds (≥ c), ordered enumeration (sort by count) and
    set containment (count = |set|) are all filters over this structure.

    Stored like {!Pairs.t}, in compressed sparse rows: one [offsets]
    array of [src_count + 1] ints, one flat buffer of z ids (strictly
    increasing within a row, rows in x order, packed as in {!Pairs})
    and one parallel flat buffer of their multiplicities (32 bits
    each).  Engines place per-chunk buffers with {!of_chunks}; {!row}
    copies, {!iter} reads in place. *)

type t

val of_rows_unchecked : (int array * int array) array -> t
(** Trusted converting constructor: packs [(zs, counts)] rows into the
    flat layout. *)

val of_chunks :
  lengths:int array -> bound:int -> Jp_util.Vec.t array -> Jp_util.Vec.t array -> t
(** [of_chunks ~lengths ~bound zs counts]: {!Pairs.of_chunks} with a
    parallel buffer of multiplicities per chunk ([counts.(i)] as long as
    [zs.(i)]), both gathered by {!Pairs.gather}.  [lengths] becomes the
    offsets in place. *)

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
(** A fresh copy of row x's ids and multiplicities. *)

val iter : (int -> int -> int -> unit) -> t -> unit
(** [iter f t] calls [f x z multiplicity]. *)
