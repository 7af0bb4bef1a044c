(* unused-export negative: [used] is referenced by Unused_export_user,
   linted as a bin/, examples/ or perfbench/ source. *)

val used : int -> int
