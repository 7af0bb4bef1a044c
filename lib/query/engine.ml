module Relation = Jp_relation.Relation
module Tuples = Jp_relation.Tuples

type catalog = Yannakakis.catalog

type plan = Star_mm of { k : int } | Planned of Planner.t

(* A star query: every atom is R(x_i, y) or R(y, x_i) with one global join
   variable y, the x_i pairwise distinct and different from y, and the
   head exactly {x_1..x_k} (any order, no duplicates). *)
let star_shape q =
  match q.Cq.body with
  | [] | [ _ ] -> None
  | atoms ->
    let candidates =
      (* join-variable candidates: variables present in every atom *)
      List.filter
        (fun v ->
          List.for_all (fun a -> List.mem v (Cq.atom_vars a)) atoms)
        (Cq.vars q)
    in
    let try_candidate y =
      let classify atom =
        match atom.Cq.args with
        | Cq.Var a, Cq.Var b when a = y && b <> y -> Some (atom.Cq.relation, `Transposed, b)
        | Cq.Var a, Cq.Var b when b = y && a <> y -> Some (atom.Cq.relation, `Direct, a)
        | _ -> None
      in
      let classified = List.map classify atoms in
      if List.exists (fun c -> c = None) classified then None
      else begin
        let parts = List.filter_map (fun c -> c) classified in
        let xs = List.map (fun (_, _, x) -> x) parts in
        let distinct = List.sort_uniq String.compare xs in
        if
          List.length distinct = List.length xs
          && List.sort String.compare q.Cq.head = distinct
          && List.length q.Cq.head = List.length xs
        then Some (y, parts)
        else None
      end
    in
    List.find_map try_candidate candidates

let plan_of ?domains ?(policy = Planner.Cost_gate) ?catalog q =
  match star_shape q with
  | Some (_, parts) when policy <> Planner.Never_mm ->
    Ok (Star_mm { k = List.length parts })
  | _ -> (
    match Planner.plan ?domains ~policy ?catalog q with
    | Ok p -> Ok (Planned p)
    | Error e -> Error e)

let describe = function
  | Star_mm { k } -> Printf.sprintf "star query (k=%d) via MMJoin" k
  | Planned p -> Planner.describe p

let explain = function
  | Star_mm { k } -> Printf.sprintf "star query (k=%d) via MMJoin\n" k
  | Planned p -> Planner.explain p

let permute_tuples t ~src_order ~dst_order ~dims =
  (* src_order.(i) is the variable of component i; rebuild tuples so that
     component j holds variable dst_order.(j) *)
  let k = Array.length src_order in
  let position v =
    let rec go i = if String.equal src_order.(i) v then i else go (i + 1) in
    go 0
  in
  let perm = Array.map position dst_order in
  let out_dims = Array.map (fun p -> dims.(p)) perm in
  let b = Tuples.create_builder ~arity:k ~dims:out_dims in
  let buf = Array.make k 0 in
  Tuples.iter
    (fun tuple ->
      Array.iteri (fun j p -> buf.(j) <- tuple.(p)) perm;
      Tuples.add b buf)
    t;
  Tuples.build b

let run_star ?domains ?guard ?cancel catalog q y parts =
  ignore y;
  let resolve (name, orient, x) =
    match List.assoc_opt name catalog with
    | None -> Error ("unknown relation: " ^ name)
    | Some rel ->
      (* Star.project expects R(x_i, y): src = output variable *)
      Ok ((match orient with `Direct -> rel | `Transposed -> Relation.transpose rel), x)
  in
  let rec resolve_all acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
      match resolve p with Ok r -> resolve_all (r :: acc) rest | Error e -> Error e)
  in
  match resolve_all [] parts with
  | Error e -> Error e
  | Ok resolved ->
    let rels = Array.of_list (List.map fst resolved) in
    let xs = Array.of_list (List.map snd resolved) in
    let t = Joinproj.Star.project ?domains ?guard ?cancel rels in
    let dims = Array.map Relation.src_count rels in
    Ok (permute_tuples t ~src_order:xs ~dst_order:(Array.of_list q.Cq.head) ~dims)

let run ?domains ?(policy = Planner.Cost_gate) ?guard ?cancel ?cache catalog q =
  match star_shape q with
  | Some (y, parts) when policy <> Planner.Never_mm ->
    run_star ?domains ?guard ?cancel catalog q y parts
  | _ -> Planner.run ?domains ~policy ?guard ?cancel ?cache catalog q

let boolean ?domains ?(policy = Planner.Cost_gate) ?guard ?cancel ?cache catalog
    q =
  Planner.boolean ?domains ~policy ?guard ?cancel ?cache catalog q
