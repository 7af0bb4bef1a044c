module Cq = Testkit.Cq
module Hypergraph = Testkit.Hypergraph
module Bag = Testkit.Bag
module Yannakakis = Jp_query.Yannakakis
module Engine = Jp_query.Engine
module Relation = Jp_relation.Relation
module Tuples = Testkit.Tuples

let parse_ok s =
  match Cq.parse s with Ok q -> q | Error e -> Alcotest.failf "parse failed: %s" e

let test_parse_basic () =
  let q = parse_ok "Q(x, z) :- R(x, y), S(z, y)" in
  Alcotest.(check (list string)) "head" [ "x"; "z" ] q.Cq.head;
  Alcotest.(check int) "atoms" 2 (List.length q.Cq.body);
  Alcotest.(check (list string)) "vars" [ "x"; "y"; "z" ] (Cq.vars q);
  (* roundtrip *)
  Alcotest.(check bool) "roundtrip" true (Cq.equal q (parse_ok (Cq.to_string q)))

let test_parse_constants_and_repeats () =
  let q = parse_ok "Q(x) :- R(x, 7), S(x, x), T(-3, x)" in
  (match (List.nth q.Cq.body 0).Cq.args with
  | Cq.Var "x", Cq.Const 7 -> ()
  | _ -> Alcotest.fail "constant arg");
  Alcotest.(check (list string)) "repeated var collapses" [ "x" ]
    (Cq.atom_vars (List.nth q.Cq.body 1));
  (match (List.nth q.Cq.body 2).Cq.args with
  | Cq.Const (-3), Cq.Var "x" -> ()
  | _ -> Alcotest.fail "negative constant")

let test_parse_boolean_head () =
  let q = parse_ok "Q() :- R(x, y)" in
  Alcotest.(check (list string)) "empty head" [] q.Cq.head

let test_parse_errors () =
  let fails s =
    match Cq.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse failure: %s" s
  in
  fails "Q(x) :- ";
  fails "Q(x) : R(x, y)";
  fails "Q(x) :- R(x y)";
  fails "Q(w) :- R(x, y)" (* unbound head var *);
  fails "Q(x) :- R(x, y) garbage";
  fails "Q(1) :- R(x, y)" (* constant in head *)

let test_parse_edge_cases () =
  (* duplicate atoms are legal (idempotent joins) *)
  let q = parse_ok "Q(x) :- R(x, y), R(x, y)" in
  Alcotest.(check int) "duplicate atoms kept" 2 (List.length q.Cq.body);
  (* repeated head variable *)
  let q = parse_ok "Q(x, x) :- R(x, y)" in
  Alcotest.(check (list string)) "repeated head var" [ "x"; "x" ] q.Cq.head;
  (* constant-only atom *)
  let q = parse_ok "Q(x) :- R(x, y), S(1, 2)" in
  Alcotest.(check (list string)) "constant-only atom has no vars" []
    (Cq.atom_vars (List.nth q.Cq.body 1));
  (* whitespace tolerance, and roundtrip through the normalized form *)
  let q = parse_ok "  Q ( x , z )  :-  R ( x , y ) ,\n  S ( z , y )  " in
  Alcotest.(check bool) "whitespace-insensitive" true
    (Cq.equal q (parse_ok "Q(x,z) :- R(x,y), S(z,y)"))

let test_parse_error_positions () =
  let check_error s expect =
    match Cq.parse s with
    | Ok _ -> Alcotest.failf "expected parse failure: %s" s
    | Error e -> Alcotest.(check string) s expect e
  in
  check_error "Q(x) :- R(x y)" "parse error at offset 12: expected ',', found 'y'";
  (* the unbound-head-variable error points at the variable, not offset 0 *)
  check_error "Q(w) :- R(x, y)"
    "parse error at offset 2: head variable 'w' not bound in body";
  check_error "Q(x, w) :- R(x, y)"
    "parse error at offset 5: head variable 'w' not bound in body";
  check_error "Q(1) :- R(x, y)"
    "parse error at offset 3: head arguments must be variables"

let prop_parse_roundtrip =
  QCheck.Test.make ~name:"generated queries roundtrip through the parser" ~count:100
    QCheck.(pair (int_range 1 4) (int_range 0 3))
    (fun (n_atoms, head_n) ->
      let var i = Printf.sprintf "v%d" i in
      let body =
        List.init n_atoms (fun i ->
            {
              Cq.relation = Printf.sprintf "R%d" i;
              args = (Cq.Var (var i), Cq.Var (var (i + 1)));
            })
      in
      let head = List.init (min head_n n_atoms) var in
      let q = { Cq.head; body } in
      match Cq.parse (Cq.to_string q) with
      | Ok q' -> Cq.equal q q'
      | Error _ -> false)

let test_acyclicity () =
  let acyclic =
    [
      "Q(x) :- R(x, y)";
      "Q(x, z) :- R(x, y), S(z, y)";
      "Q(a, d) :- R(a, b), S(b, c), T(c, d)" (* path *);
      "Q(a, b, c) :- R(a, y), S(b, y), T(c, y)" (* star *);
      "Q(a, b) :- R(a, b), S(a, b)" (* parallel edges *);
      "Q(a, c) :- R(a, b), S(c, d)" (* disconnected *);
    ]
  in
  let cyclic =
    [
      "Q(a) :- R(a, b), S(b, c), T(c, a)" (* triangle *);
      "Q(a) :- R(a, b), S(b, c), T(c, d), U(d, a)" (* 4-cycle *);
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Hypergraph.is_acyclic (parse_ok s)))
    acyclic;
  List.iter
    (fun s ->
      Alcotest.(check bool) s false (Hypergraph.is_acyclic (parse_ok s)))
    cyclic

let test_join_tree_structure () =
  let q = parse_ok "Q(a, d) :- R(a, b), S(b, c), T(c, d)" in
  match Hypergraph.join_tree q with
  | None -> Alcotest.fail "path should be acyclic"
  | Some t ->
    Alcotest.(check int) "order covers all atoms" 3 (List.length t.Hypergraph.order);
    let roots =
      List.filter (fun e -> t.Hypergraph.parent.(e) < 0) t.Hypergraph.order
    in
    Alcotest.(check int) "one root" 1 (List.length roots)

let test_bag_of_relation () =
  let r = Relation.of_edges [| (0, 1); (1, 1); (2, 2) |] in
  let bag_all = Bag.of_relation r { Cq.relation = "R"; args = (Cq.Var "x", Cq.Var "y") } in
  Alcotest.(check int) "all tuples" 3 (Bag.cardinality bag_all);
  let bag_sel = Bag.of_relation r { Cq.relation = "R"; args = (Cq.Var "x", Cq.Const 1) } in
  Alcotest.(check (list (list int))) "selection" [ [ 0 ]; [ 1 ] ]
    (Bag.to_sorted_list bag_sel);
  let bag_diag = Bag.of_relation r { Cq.relation = "R"; args = (Cq.Var "x", Cq.Var "x") } in
  Alcotest.(check (list (list int))) "diagonal" [ [ 1 ]; [ 2 ] ]
    (Bag.to_sorted_list bag_diag);
  let bag_const = Bag.of_relation r { Cq.relation = "R"; args = (Cq.Const 0, Cq.Const 1) } in
  Alcotest.(check int) "constant hit" 1 (Bag.cardinality bag_const);
  let bag_miss = Bag.of_relation r { Cq.relation = "R"; args = (Cq.Const 0, Cq.Const 2) } in
  Alcotest.(check int) "constant miss" 0 (Bag.cardinality bag_miss)

let test_bag_ops () =
  let a = Bag.make ~vars:[ "x"; "y" ] [ [| 1; 10 |]; [| 2; 20 |]; [| 3; 30 |] ] in
  let b = Bag.make ~vars:[ "y"; "z" ] [ [| 10; 5 |]; [| 10; 6 |]; [| 99; 7 |] ] in
  let sj = Bag.semijoin a b in
  Alcotest.(check (list (list int))) "semijoin" [ [ 1; 10 ] ] (Bag.to_sorted_list sj);
  let j = Bag.join_project a b ~keep:[ "x"; "z" ] in
  Alcotest.(check (list (list int))) "join project" [ [ 1; 5 ]; [ 1; 6 ] ]
    (Bag.to_sorted_list j);
  let p = Bag.project a ~keep:[ "y" ] in
  Alcotest.(check (list (list int))) "project" [ [ 10 ]; [ 20 ]; [ 30 ] ]
    (Bag.to_sorted_list p);
  (* empty shared vars: cartesian semantics *)
  let c = Bag.make ~vars:[ "w" ] [ [| 42 |] ] in
  Alcotest.(check int) "semijoin no shared, non-empty" 3
    (Bag.cardinality (Bag.semijoin a c));
  let empty = Bag.make ~vars:[ "w" ] [] in
  Alcotest.(check int) "semijoin no shared, empty" 0
    (Bag.cardinality (Bag.semijoin a empty));
  Alcotest.(check int) "cartesian join" 3
    (Bag.cardinality (Bag.join_project a c ~keep:[ "x"; "w" ]))

(* brute-force CQ evaluation: shared with the other suites via Gen *)
let brute = Gen.brute_cq

let small_catalog seed =
  [
    ("R", Gen.random_relation ~seed ~nx:6 ~ny:6 ~edges:14 ());
    ("S", Gen.random_relation ~seed:(seed + 1) ~nx:6 ~ny:6 ~edges:14 ());
    ("T", Gen.random_relation ~seed:(seed + 2) ~nx:6 ~ny:6 ~edges:14 ());
  ]

let queries_for_agreement =
  [
    "Q(x, z) :- R(x, y), S(z, y)";
    "Q(a, d) :- R(a, b), S(b, c), T(c, d)";
    "Q(a, b, c) :- R(a, y), S(b, y), T(c, y)";
    "Q(b) :- R(1, b)";
    "Q(a) :- R(a, b), S(b, 2)";
    "Q(a, b) :- R(a, b), S(a, b)";
    "Q(x) :- R(x, x)";
    "Q(a, c) :- R(a, b), S(c, d)";
    "Q(x, x, b) :- R(x, b)" (* duplicated head variable *);
  ]

(* seeded random acyclic queries (trees, star bursts, parallel edges,
   constants, repeated variables, disconnected components, boolean
   heads): the engine must match brute force under every dispatch
   policy, including Always_mm, which force-routes every eligible
   fragment through the MM engines even where the cost gate would not *)
let prop_random_cq_fuzz =
  let policies =
    [
      ("auto", Jp_query.Planner.Cost_gate);
      ("mm", Jp_query.Planner.Always_mm);
      ("yannakakis", Jp_query.Planner.Never_mm);
    ]
  in
  QCheck.Test.make ~name:"engine = brute force on seeded random CQs" ~count:200
    QCheck.small_int (fun seed ->
      let { Gen.query = q; catalog } = Gen.random_cq ~seed () in
      if not (Hypergraph.is_acyclic q) then
        QCheck.Test.fail_reportf "generator produced a cyclic query: %s"
          (Cq.to_string q);
      List.for_all
        (fun (pname, policy) ->
          if q.Cq.head = [] then (
            match Engine.boolean ~policy catalog q with
            | Error e ->
              QCheck.Test.fail_reportf "%s [%s]: %s" (Cq.to_string q) pname e
            | Ok sat -> sat = Gen.brute_cq_boolean catalog q)
          else
            match Engine.run ~policy catalog q with
            | Error e ->
              QCheck.Test.fail_reportf "%s [%s]: %s" (Cq.to_string q) pname e
            | Ok t -> Tuples.to_list t = brute catalog q)
        policies)

let test_yannakakis_matches_brute () =
  List.iter
    (fun seed ->
      let catalog = small_catalog seed in
      List.iter
        (fun qs ->
          let q = parse_ok qs in
          match Yannakakis.run catalog q with
          | Error e -> Alcotest.failf "%s: %s" qs e
          | Ok t ->
            Alcotest.(check (list (list int)))
              (Printf.sprintf "%s (seed %d)" qs seed)
              (brute catalog q) (Tuples.to_list t))
        queries_for_agreement)
    [ 201; 202; 203 ]

let test_engine_matches_yannakakis () =
  let catalog = small_catalog 210 in
  List.iter
    (fun qs ->
      let q = parse_ok qs in
      match (Engine.run catalog q, Yannakakis.run catalog q) with
      | Ok a, Ok b ->
        Alcotest.(check (list (list int))) qs (Tuples.to_list b) (Tuples.to_list a)
      | Error e, _ | _, Error e -> Alcotest.failf "%s: %s" qs e)
    (queries_for_agreement
    @ [
        "Q(z, x) :- R(x, y), S(z, y)" (* permuted head *);
        "Q(a, b) :- R(y, a), S(b, y)" (* mixed orientation star *);
      ])

let test_engine_plans () =
  let check_plan ?policy qs expect =
    match Engine.plan_of ?policy (parse_ok qs) with
    | Ok p -> Alcotest.(check string) qs expect (Engine.describe p)
    | Error e -> Alcotest.failf "%s: %s" qs e
  in
  check_plan "Q(x, z) :- R(x, y), S(z, y)" "star query (k=2) via MMJoin";
  check_plan "Q(a, b, c) :- R(a, y), S(b, y), T(c, y)" "star query (k=3) via MMJoin";
  (* without a catalog the cost gate carves nothing *)
  check_plan "Q(a, d) :- R(a, b), S(b, c), T(c, d)" "acyclic query via Yannakakis";
  check_plan "Q(x, y) :- R(x, y), S(y, x)" "acyclic query via Yannakakis";
  (* forced policies override both the gate and the whole-star bypass *)
  check_plan ~policy:Jp_query.Planner.Always_mm
    "Q(a, d) :- R(a, b), S(b, c), T(c, d)"
    "decomposed: 1 two-path MM fragment + 1 scan via Yannakakis";
  check_plan ~policy:Jp_query.Planner.Always_mm
    "Q(a) :- R(a, b), S(c, b), T(c, d)"
    "decomposed: 1 two-path MM fragment + 1 scan via Yannakakis";
  check_plan ~policy:Jp_query.Planner.Never_mm "Q(x, z) :- R(x, y), S(z, y)"
    "acyclic query via Yannakakis";
  (match Engine.plan_of (parse_ok "Q(a) :- R(a, b), S(b, c), T(c, a)") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "triangle should be rejected")

let test_boolean_query () =
  let catalog = [ ("R", Relation.of_edges [| (0, 1) |]) ] in
  (match Yannakakis.boolean catalog (parse_ok "Q() :- R(0, 1)") with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "should be satisfiable"
  | Error e -> Alcotest.fail e);
  match Yannakakis.boolean catalog (parse_ok "Q() :- R(1, 0)") with
  | Ok false -> ()
  | Ok true -> Alcotest.fail "should be unsatisfiable"
  | Error e -> Alcotest.fail e

let test_unknown_relation () =
  match Yannakakis.run [] (parse_ok "Q(x) :- Nope(x, y)") with
  | Error e -> Alcotest.(check bool) "mentions name" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected unknown-relation error"

let suite =
  [
    Alcotest.test_case "parse basic" `Quick test_parse_basic;
    Alcotest.test_case "parse constants/repeats" `Quick test_parse_constants_and_repeats;
    Alcotest.test_case "parse boolean head" `Quick test_parse_boolean_head;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse edge cases" `Quick test_parse_edge_cases;
    Alcotest.test_case "parse error positions" `Quick test_parse_error_positions;
    QCheck_alcotest.to_alcotest prop_parse_roundtrip;
    QCheck_alcotest.to_alcotest prop_random_cq_fuzz;
    Alcotest.test_case "acyclicity" `Quick test_acyclicity;
    Alcotest.test_case "join tree" `Quick test_join_tree_structure;
    Alcotest.test_case "bag of relation" `Quick test_bag_of_relation;
    Alcotest.test_case "bag ops" `Quick test_bag_ops;
    Alcotest.test_case "yannakakis = brute" `Quick test_yannakakis_matches_brute;
    Alcotest.test_case "engine = yannakakis" `Quick test_engine_matches_yannakakis;
    Alcotest.test_case "engine plans" `Quick test_engine_plans;
    Alcotest.test_case "boolean query" `Quick test_boolean_query;
    Alcotest.test_case "unknown relation" `Quick test_unknown_relation;
  ]
