(* unused-export: [dead] is referenced by nothing, [tested] only by a
   test-tree user (Unused_export_user linted as Test). *)

val dead : int -> int

val tested : int -> int
