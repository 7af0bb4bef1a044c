let id = "poly-compare"

(* Stdlib's structural comparisons: each compiles to a call into the
   polymorphic runtime compare unless its operands' type is known. *)
let comparisons =
  [
    "Stdlib.=";
    "Stdlib.<>";
    "Stdlib.<";
    "Stdlib.<=";
    "Stdlib.>";
    "Stdlib.>=";
    "Stdlib.compare";
    "Stdlib.min";
    "Stdlib.max";
  ]

(* The comparison's operand type, read off its instance [t -> t -> _],
   is a type variable: the compiler cannot specialize it, even when
   every caller passes ints. *)
let at_type_variable (e : Typedtree.expression) =
  match Types.get_desc e.exp_type with
  | Types.Tarrow (_, arg, _, _) -> (
    match Types.get_desc arg with
    | Types.Tvar _ | Types.Tunivar _ -> true
    | _ -> false)
  | _ -> false

let rule =
  Lint_rule.v ~id
    ~doc:
      "no polymorphic Stdlib.compare, and no Stdlib comparison at a type \
       variable, in lib/ or tools/ (radix Intsort / monomorphic comparators \
       and kernels are load-bearing, see ABL-SORT)"
    ~applies:Lint_rule.lib_or_tools
    ~on_expr:(fun ctx e ->
      match Lint_ctx.ident_of_expr ctx e with
      | Some "Stdlib.compare" ->
        Lint_ctx.emit ctx ~rule:id ~loc:e.Typedtree.exp_loc
          ~message:"polymorphic Stdlib.compare in library code"
          ~hint:
            "use Jp_util.Intsort for int arrays, or a monomorphic comparator \
             (Int.compare, String.compare, List.compare Int.compare, ...)"
      | Some name when List.mem name comparisons && at_type_variable e ->
        Lint_ctx.emit ctx ~rule:id ~loc:e.Typedtree.exp_loc
          ~message:
            (Printf.sprintf "%s at a type variable compiles to the polymorphic compare"
               (String.sub name 7 (String.length name - 7)))
          ~hint:
            "annotate the operands' type (e.g. (a : int array)), or use a \
             typed comparison (Int.equal, Int.min, Float.compare, ...)"
      | _ -> ())
    ()
