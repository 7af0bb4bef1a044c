(* The consumer side of the unused-export fixtures: its kind (test, bin,
   examples, perfbench) is set by the lint call, not by its path. *)
let run x = Bad_unused_export.tested (Ok_unused_export.used x)

let check x = Suppressed_unused_export.reference x
