(** Relation persistence.

    Two formats:

    - the native text format (versioned header, id-space sizes, one edge
      per line) — lossless round-trip of a {!Relation.t};
    - TSV import for external string-keyed data: two whitespace-separated
      columns per line, dictionary-encoded on the fly (the layer the CLI's
      [import] command uses). *)

module Relation = Jp_relation.Relation

val save_file : Relation.t -> string -> unit

val load_file : string -> (Relation.t, string) result
(** Every malformed input ends in [Error], never an exception: a bad
    header, a malformed or out-of-range line, or a size line declaring a
    negative id space or one above 2{^26} = 67,108,864 ids per side (a
    declared id space is allocated before any edge is read). *)

val import_tsv :
  in_channel -> (Relation.t * Dictionary.t * Dictionary.t, string) result
(** Reads [src <ws> dst] lines ('#'-prefixed lines and blank lines are
    skipped); returns the relation plus the source/destination
    dictionaries. *)
