(** Rule [poly-compare]: no resolved use of [Stdlib.compare] in [lib/]
    or [tools/], and no Stdlib [=], [<>], [<], [<=], [>], [>=], [min]
    or [max] instantiated at a type variable (an unannotated generic
    helper).  Both compile to the polymorphic runtime compare, which is
    what {!Jp_util.Intsort}, the monomorphic comparators and the
    int-typed {!Jp_util.Sorted} kernels exist to avoid (ABL-SORT).
    Comparisons at a concrete type, a variant included, stay legal. *)

val id : string

val rule : Lint_rule.t
