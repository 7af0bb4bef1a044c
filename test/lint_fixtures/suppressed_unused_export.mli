(* unused-export suppression: the allow rides on the val. *)

val reference : int -> int
[@@jp.lint.allow "unused-export" "fixture: reference kept for tests"]
