(** Interprocedural rule [unused-export]: a [val] of a [lib/] interface
    that no unit other than its own references, or that only [test/]
    references.  Uses from [bin/], [bench/], [tools/], [examples/],
    [perfbench/] and other [lib/] units (the library's main module
    included) keep an export live. *)

val id : string

val rule : Lint_global.t
