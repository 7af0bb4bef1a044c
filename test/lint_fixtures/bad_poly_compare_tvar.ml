(* positive fixture: poly-compare — a comparison at a type variable: the
   unannotated helper is generic, so [<] is the polymorphic compare even
   though every caller passes an int array *)
let lt a i j = a.(i) < a.(j)
