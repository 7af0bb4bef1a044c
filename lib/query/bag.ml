module Relation = Jp_relation.Relation

type t = { vars : string list; rows : (int array, unit) Hashtbl.t }

let make ~vars rows =
  let t = { vars; rows = Hashtbl.create (List.length rows + 1) } in
  let width = List.length vars in
  List.iter
    (fun row ->
      if Array.length row <> width then invalid_arg "Bag.make: row width mismatch";
      Hashtbl.replace t.rows row ())
    rows;
  t

let vars t = t.vars

let cardinality t = Hashtbl.length t.rows

let rows t = Hashtbl.fold (fun row () acc -> row :: acc) t.rows []

let of_relation rel atom =
  let a, b = atom.Cq.args in
  let out = ref [] in
  let emit x y =
    match (a, b) with
    | Cq.Var va, Cq.Var vb when va = vb -> if x = y then out := [| x |] :: !out
    | Cq.Var _, Cq.Var _ -> out := [| x; y |] :: !out
    | Cq.Var _, Cq.Const k -> if y = k then out := [| x |] :: !out
    | Cq.Const k, Cq.Var _ -> if x = k then out := [| y |] :: !out
    | Cq.Const k1, Cq.Const k2 -> if x = k1 && y = k2 then out := [||] :: !out
  in
  Relation.iter emit rel;
  make ~vars:(Cq.atom_vars atom) !out

(* positions of [shared] columns in [t] *)
let positions t names =
  List.map
    (fun v ->
      let rec find i = function
        | [] -> invalid_arg ("Bag: unknown column " ^ v)
        | x :: _ when x = v -> i
        | _ :: rest -> find (i + 1) rest
      in
      find 0 t.vars)
    names

let shared_vars a b = List.filter (fun v -> List.mem v b.vars) a.vars

let key_of row ps = Array.of_list (List.map (fun p -> row.(p)) ps)

let semijoin a b =
  let shared = shared_vars a b in
  if shared = [] then if cardinality b = 0 then make ~vars:a.vars [] else a
  else begin
    let pa = positions a shared and pb = positions b shared in
    let keys = Hashtbl.create (cardinality b + 1) in
    Hashtbl.iter (fun row () -> Hashtbl.replace keys (key_of row pb) ()) b.rows;
    let kept =
      Hashtbl.fold
        (fun row () acc -> if Hashtbl.mem keys (key_of row pa) then row :: acc else acc)
        a.rows []
    in
    make ~vars:a.vars kept
  end

let join_project a b ~keep =
  let shared = shared_vars a b in
  let out_vars =
    List.filter (fun v -> List.mem v a.vars || List.mem v b.vars) keep
  in
  let pa_shared = positions a shared and pb_shared = positions b shared in
  (* for each output column, where to read it from: a first, else b *)
  let source =
    List.map
      (fun v ->
        if List.mem v a.vars then `A (List.hd (positions a [ v ]))
        else `B (List.hd (positions b [ v ])))
      out_vars
  in
  let build_row ra rb =
    Array.of_list
      (List.map (function `A p -> ra.(p) | `B p -> rb.(p)) source)
  in
  (* hash the smaller side on the shared key *)
  let index = Hashtbl.create (cardinality b + 1) in
  Hashtbl.iter
    (fun row () ->
      let k = key_of row pb_shared in
      Hashtbl.replace index k (row :: Option.value ~default:[] (Hashtbl.find_opt index k)))
    b.rows;
  let out = { vars = out_vars; rows = Hashtbl.create 64 } in
  Hashtbl.iter
    (fun ra () ->
      match Hashtbl.find_opt index (key_of ra pa_shared) with
      | None -> ()
      | Some matches ->
        List.iter (fun rb -> Hashtbl.replace out.rows (build_row ra rb) ()) matches)
    a.rows;
  out

let project t ~keep =
  let ps = positions t keep in
  let out = { vars = keep; rows = Hashtbl.create (cardinality t + 1) } in
  Hashtbl.iter
    (fun row () -> Hashtbl.replace out.rows (key_of row ps) ())
    t.rows;
  out
