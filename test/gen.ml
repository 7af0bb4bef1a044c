(* Shared random-instance generators for the test suites. *)

module Relation = Testkit.Relation

let rng seed = Jp_util.Rng.create seed

(* A random bipartite relation with [edges] attempted edges over
   [nx] x [ny]; duplicates are generated on purpose to exercise dedup. *)
let random_relation ?(seed = 42) ~nx ~ny ~edges () =
  let g = rng seed in
  let flat = Array.make (2 * edges) 0 in
  for i = 0 to edges - 1 do
    flat.(2 * i) <- Jp_util.Rng.int g nx;
    flat.((2 * i) + 1) <- Jp_util.Rng.int g ny
  done;
  Relation.of_flat ~src_count:nx ~dst_count:ny flat

(* Skewed (Zipf-ish) relation: degree of y decays as 1/(y+1). *)
let skewed_relation ?(seed = 7) ~nx ~ny ~edges () =
  let g = rng seed in
  let flat = Array.make (2 * edges) 0 in
  for i = 0 to edges - 1 do
    let y =
      let u = Jp_util.Rng.float g 1.0 in
      let v = int_of_float (float_of_int ny ** u) - 1 in
      min (ny - 1) (max 0 v)
    in
    flat.(2 * i) <- Jp_util.Rng.int g nx;
    flat.((2 * i) + 1) <- y
  done;
  Relation.of_flat ~src_count:nx ~dst_count:ny flat

(* Brute-force reference: projected 2-path join as a sorted pair list. *)
let brute_two_path ~r ~s =
  let acc = Hashtbl.create 97 in
  Relation.iter
    (fun x y ->
      for z = 0 to Relation.src_count s - 1 do
        if Relation.mem s z y then Hashtbl.replace acc (x, z) ()
      done)
    r;
  List.sort compare (Hashtbl.fold (fun k () l -> k :: l) acc [])

(* Brute-force counted reference: (x, z) -> #witnesses. *)
let brute_two_path_counts ~r ~s =
  let acc = Hashtbl.create 97 in
  Relation.iter
    (fun x y ->
      Array.iter
        (fun z ->
          let k = (x, z) in
          Hashtbl.replace acc k (1 + Option.value ~default:0 (Hashtbl.find_opt acc k)))
        (Relation.adj_dst s y))
    r;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

(* ------------------------------------------------------------------ *)
(* random acyclic conjunctive queries (for the planner fuzz harness)   *)

module Cq = Jp_query.Cq

type cq_case = { query : Cq.t; catalog : (string * Relation.t) list }

(* Brute-force CQ evaluation: enumerate all variable assignments over
   [0, dom).  Head rows are sorted lists; a boolean (empty-head) query
   yields [[]] when satisfiable and [] when not.  Negative or
   out-of-range constants simply never match. *)
let brute_cq catalog q =
  let vars = Cq.vars q in
  let dom =
    List.fold_left
      (fun acc (_, r) -> max acc (max (Relation.src_count r) (Relation.dst_count r)))
      0 catalog
  in
  let results = Hashtbl.create 64 in
  let assignment = Hashtbl.create 8 in
  let term_value = function
    | Cq.Const k -> k
    | Cq.Var v -> Hashtbl.find assignment v
  in
  let satisfied () =
    List.for_all
      (fun atom ->
        let r = List.assoc atom.Cq.relation catalog in
        let x, y = atom.Cq.args in
        let xv = term_value x and yv = term_value y in
        xv >= 0 && yv >= 0
        && xv < Relation.src_count r
        && yv < Relation.dst_count r
        && Relation.mem r xv yv)
      q.Cq.body
  in
  let rec assign = function
    | [] ->
      if satisfied () then
        Hashtbl.replace results
          (List.map (fun v -> Hashtbl.find assignment v) q.Cq.head)
          ()
    | v :: rest ->
      for value = 0 to dom - 1 do
        Hashtbl.replace assignment v value;
        assign rest
      done
  in
  assign vars;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) results [])

let brute_cq_boolean catalog q = brute_cq catalog { q with Cq.head = [] } <> []

(* A random acyclic conjunctive query with its catalog.  Queries are
   acyclic by construction: each component grows as a forest (tree
   extension with a fresh variable, or a star burst of fresh leaves
   around an existing center), plus occasional parallel edges (covered
   atoms).  Mutations then inject constants and repeated variables —
   both only shrink hyperedges, which preserves acyclicity for binary
   atoms.  Heads are random subsets of the surviving body variables,
   occasionally with a duplicate, occasionally empty (boolean).  The
   projected-away interior variables are exactly what makes fragments
   carvable, so the planner sees plenty of 2-path and star shapes. *)
let random_cq ?(seed = 0) () =
  let g = rng (31 + (7919 * seed)) in
  let dom = 5 in
  let max_vars = 6 in
  let var i = Printf.sprintf "v%d" i in
  let next_var = ref 0 in
  let fresh () =
    let v = !next_var in
    incr next_var;
    var v
  in
  let rel () = Printf.sprintf "R%d" (Jp_util.Rng.int g 3) in
  let atoms = ref [] in
  let add a b =
    let args = if Jp_util.Rng.bool g then (Cq.Var a, Cq.Var b) else (Cq.Var b, Cq.Var a) in
    atoms := { Cq.relation = rel (); args } :: !atoms
  in
  let components = 1 + Jp_util.Rng.int g 2 in
  for _comp = 1 to components do
    if !next_var < max_vars then begin
      let comp_vars = ref [ fresh () ] in
      let comp_pairs = ref [] in
      let pick_existing () =
        List.nth !comp_vars (Jp_util.Rng.int g (List.length !comp_vars))
      in
      let add_pair a b =
        comp_pairs := (a, b) :: !comp_pairs;
        add a b
      in
      let steps = 1 + Jp_util.Rng.int g 3 in
      for _ = 1 to steps do
        match Jp_util.Rng.int g 3 with
        | 0 when !next_var < max_vars ->
          (* tree extension: fresh leaf under an existing variable *)
          let parent = pick_existing () in
          let child = fresh () in
          comp_vars := child :: !comp_vars;
          add_pair parent child
        | 1 when !next_var + 1 < max_vars ->
          (* star burst: two fresh leaves around an existing center *)
          let center = pick_existing () in
          let l1 = fresh () and l2 = fresh () in
          comp_vars := l1 :: l2 :: !comp_vars;
          add_pair l1 center;
          add_pair l2 center
        | _ -> (
          (* parallel edge: duplicate an existing edge's endpoints (a
             chord between two arbitrary tree vertices would close a
             cycle); on a still-single-vertex component, a self loop *)
          match !comp_pairs with
          | [] ->
            let v = pick_existing () in
            add_pair v v
          | pairs ->
            let a, b = List.nth pairs (Jp_util.Rng.int g (List.length pairs)) in
            add_pair a b)
      done
    end
  done;
  let atoms = Array.of_list (List.rev !atoms) in
  (* mutations: constants and repeated variables *)
  Array.iteri
    (fun i atom ->
      if Jp_util.Rng.int g 6 = 0 then begin
        let a, b = atom.Cq.args in
        match Jp_util.Rng.int g 3 with
        | 0 -> atoms.(i) <- { atom with Cq.args = (Cq.Const (Jp_util.Rng.int g (dom + 2) - 1), b) }
        | 1 -> atoms.(i) <- { atom with Cq.args = (a, Cq.Const (Jp_util.Rng.int g (dom + 2) - 1)) }
        | _ -> atoms.(i) <- { atom with Cq.args = (a, a) }
      end)
    atoms;
  let body = Array.to_list atoms in
  let body_vars = Cq.vars { Cq.head = []; body } in
  let head =
    if Jp_util.Rng.int g 6 = 0 then [] (* boolean *)
    else begin
      let kept = List.filter (fun _ -> Jp_util.Rng.bool g) body_vars in
      let kept = if kept = [] && body_vars <> [] then [ List.hd body_vars ] else kept in
      if kept <> [] && Jp_util.Rng.int g 8 = 0 then List.hd kept :: kept else kept
    end
  in
  let catalog =
    List.map
      (fun name ->
        ( name,
          random_relation
            ~seed:(seed + (17 * Char.code name.[1]))
            ~nx:dom ~ny:dom
            ~edges:(10 + Jp_util.Rng.int g 5)
            () ))
      [ "R0"; "R1"; "R2" ]
  in
  { query = { Cq.head; body }; catalog }

let pairs_to_list p = Testkit.Pairs.to_list p

let counted_to_list c =
  List.map (fun (x, z, k) -> ((x, z), k)) (Testkit.Counted_pairs.triples c)
