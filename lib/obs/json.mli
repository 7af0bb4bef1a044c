(** Minimal JSON values: just enough to emit Chrome traces and bench
    records, and to parse them back in tests — no external dependency.

    The emitter always produces valid JSON (non-finite floats become
    [null]); the parser accepts any standard JSON document, with the one
    simplification that [\u] escapes above ASCII decode to ['?']. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val to_string_pretty : t -> string
(** Indented rendering (one field per line), ending in a newline — used
    for checked-in baseline files so successive PRs diff cleanly. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a message with the
    failing offset. *)

val member : string -> t -> t option
(** [member key (Obj ...)] looks up a field; [None] on missing key or
    non-object. *)

val to_float_opt : t -> float option
(** Accepts both [Int] and [Float]. *)
