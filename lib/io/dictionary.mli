(** String-to-id dictionary encoding.

    The engine works on dense int ids (Section 2.1's uniform-cost RAM
    model); this dictionary owns the mapping for external string-keyed
    data.  Ids are assigned densely in first-seen order, so a freshly
    imported relation has [src_count]/[dst_count] equal to the dictionary
    sizes. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** Returns the existing id or assigns the next one. *)

val find : t -> string -> int option
[@@jp.lint.allow
  "unused-export"
  "name-to-id lookup of the TSV import dictionary; the io tests check \
   the encoding through it"]
(** Lookup without assignment. *)

val name : t -> int -> string
[@@jp.lint.allow
  "unused-export"
  "id-to-name decode of the TSV import dictionary; the io tests check \
   the encoding through it"]
(** Inverse lookup.  Raises [Invalid_argument] for unassigned ids. *)

val size : t -> int
