(* negative fixture: poly-compare — the same helper at a known type, and
   a structural comparison on a concrete variant, are both clean *)
let lt (a : int array) i j = a.(i) < a.(j)

type decision = Wcoj | Partitioned of { d1 : int; d2 : int }

let changed (a : decision) b = a <> b
