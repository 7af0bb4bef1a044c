(** Materialized intermediate results ("bags") for Yannakakis evaluation.

    A bag is a deduplicated set of tuples over named columns.  The three
    operations Yannakakis needs are here: semijoin filtering, hash join
    with projection, and column projection.  Columns are query variable
    names; rows are int arrays in column order. *)

type t

val make : vars:string list -> int array list -> t
(** Rows are deduplicated; each must have [List.length vars] fields. *)

val vars : t -> string list

val cardinality : t -> int

val rows : t -> int array list
(** Unspecified order; fresh list, shared row arrays (do not mutate). *)

val of_relation : Jp_relation.Relation.t -> Cq.atom -> t
(** Loads an atom's tuples: applies constant selections and repeated-
    variable equality (e.g. R(x, x)), producing columns
    {!Cq.atom_vars}[ atom].  A fully constant atom yields a zero-column
    bag with one (empty) row if the tuple exists, else no rows. *)

val semijoin : t -> t -> t
(** [semijoin a b] keeps the rows of [a] that agree with some row of [b]
    on their shared columns.  With no shared columns, [a] survives iff
    [b] is non-empty. *)

val join_project : t -> t -> keep:string list -> t
(** [join_project a b ~keep] is the natural join of [a] and [b] projected
    onto the columns of [keep] that exist in either input (in [keep]
    order), deduplicated.  With no shared columns this is a cartesian
    product. *)

val project : t -> keep:string list -> t
(** Projection onto the listed columns (which must all exist), dedup. *)
