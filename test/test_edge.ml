(* Degenerate and boundary inputs pushed through every public entry point:
   empty relations, singleton domains, self-loops, and hub-only shapes. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Two_path = Joinproj.Two_path

let empty = Relation.of_edges ~src_count:5 ~dst_count:5 [||]

let singleton = Relation.of_edges [| (0, 0) |]

(* one hub y connected to every x *)
let hub n =
  Relation.of_edges (Array.init n (fun i -> (i, 0)))

let test_two_path_empty () =
  Alcotest.(check int) "empty join" 0 (Pairs.count (Two_path.project ~r:empty ~s:empty ()));
  Alcotest.(check int) "empty left" 0
    (Pairs.count (Two_path.project ~r:empty ~s:singleton ()));
  Alcotest.(check int) "empty right" 0
    (Pairs.count (Two_path.project ~r:singleton ~s:empty ()));
  Alcotest.(check int) "empty counts" 0
    (Jp_relation.Counted_pairs.count (Two_path.project_counts ~r:empty ~s:empty ()))

let test_two_path_singleton () =
  let p = Two_path.project ~r:singleton ~s:singleton () in
  Alcotest.(check (list (pair int int))) "self pair" [ (0, 0) ] (Pairs.to_list p)

let test_two_path_hub () =
  (* hub: output is the complete bipartite n x n square *)
  let n = 30 in
  let r = hub n in
  List.iter
    (fun (d1, d2) ->
      let plan =
        {
          Joinproj.Optimizer.decision = Joinproj.Optimizer.Partitioned { d1; d2 };
          est_out = 1;
          join_size = 1;
          est_seconds = 0.0;
        }
      in
      Alcotest.(check int)
        (Printf.sprintf "hub d1=%d d2=%d" d1 d2)
        (n * n)
        (Pairs.count (Two_path.project ~plan ~r ~s:r ())))
    [ (1, 1); (1, 100); (100, 1) ]

let test_star_empty_component () =
  let t = Joinproj.Star.project ~thresholds:(2, 2) [| singleton; empty; singleton |] in
  Alcotest.(check int) "empty star" 0 (Jp_relation.Tuples.count t)

let test_ssj_empty_and_tiny () =
  Alcotest.(check int) "ssj empty" 0 (Pairs.count (Jp_ssj.Mm_ssj.join ~c:1 empty));
  Alcotest.(check int) "sizeaware empty" 0
    (Pairs.count (Jp_ssj.Size_aware.join ~c:1 empty));
  Alcotest.(check int) "sizeaware++ empty" 0
    (Pairs.count (Jp_ssj.Size_aware_pp.join ~c:1 empty));
  (* c bigger than every set: nothing qualifies *)
  let r = Relation.of_sets [| [| 0; 1 |]; [| 0; 1 |] |] in
  Alcotest.(check int) "c too large" 0 (Pairs.count (Jp_ssj.Mm_ssj.join ~c:3 r));
  Alcotest.(check int) "sizeaware c too large" 0
    (Pairs.count (Jp_ssj.Size_aware.join ~c:3 r))

let test_ssj_identical_sets () =
  let r = Relation.of_sets [| [| 0; 1; 2 |]; [| 0; 1; 2 |]; [| 0; 1; 2 |] |] in
  let expect = [ (0, 1); (0, 2); (1, 2) ] in
  Alcotest.(check (list (pair int int))) "identical mm" expect
    (Pairs.to_list (Jp_ssj.Mm_ssj.join ~c:3 r));
  Alcotest.(check (list (pair int int))) "identical sizeaware" expect
    (Pairs.to_list (Jp_ssj.Size_aware.join ~c:3 r));
  Alcotest.(check (list (pair int int))) "identical sizeaware++" expect
    (Pairs.to_list (Jp_ssj.Size_aware_pp.join ~c:3 r))

let test_scj_empty_and_single_element () =
  Alcotest.(check int) "scj empty" 0 (Pairs.count (Jp_scj.Pretti.join empty));
  Alcotest.(check int) "mm scj empty" 0 (Pairs.count (Jp_scj.Mm_scj.join empty));
  let r = Relation.of_sets [| [| 0 |]; [| 0 |]; [| 1 |] |] in
  let expect = [ (0, 1); (1, 0) ] in
  List.iter
    (fun (name, f) ->
      Alcotest.(check (list (pair int int))) name expect (Pairs.to_list (f r)))
    [
      ("pretti single", Jp_scj.Pretti.join);
      ("limit+ single", Jp_scj.Limit_plus.join ~limit:2);
      ("piejoin single", fun r -> Jp_scj.Piejoin.join r);
      ("mm single", fun r -> Jp_scj.Mm_scj.join r);
    ]

let test_bsi_empty_workload () =
  let stats =
    Jp_bsi.Bsi.simulate ~r:singleton ~s:singleton ~queries:[||] ~rate:10.0
      ~batch_size:5 ()
  in
  Alcotest.(check int) "no batches" 0 stats.Jp_bsi.Bsi.batches

let test_guards () =
  Alcotest.check_raises "ssj c" (Invalid_argument "Mm_ssj.join: c must be >= 1")
    (fun () -> ignore (Jp_ssj.Mm_ssj.join ~c:0 singleton));
  Alcotest.check_raises "sizeaware c" (Invalid_argument "Size_aware.join: c must be >= 1")
    (fun () -> ignore (Jp_ssj.Size_aware.join ~c:0 singleton));
  Alcotest.check_raises "sizeaware++ c"
    (Invalid_argument "Size_aware_pp.join: c must be >= 1") (fun () ->
      ignore (Jp_ssj.Size_aware_pp.join ~c:(-1) singleton));
  Alcotest.check_raises "overlap tree c"
    (Invalid_argument "Overlap_tree.similar_pairs: c must be >= 1") (fun () ->
      ignore (Jp_ssj.Overlap_tree.similar_pairs ~c:0 singleton))

let test_guarded_degenerate () =
  (* degenerate shapes through the guarded entry point: empty input with a
     zero budget (immediate degradation), singleton, and an all-heavy hub
     under a wild overestimate *)
  let module Guard = Jp_adaptive.Guard in
  let zero_budget = Guard.with_budget_ms 0.0 Guard.default in
  Alcotest.(check int) "guarded empty join" 0
    (Pairs.count (Two_path.project ~guard:zero_budget ~r:empty ~s:empty ()));
  let p = Two_path.project ~guard:Guard.default ~r:singleton ~s:singleton () in
  Alcotest.(check (list (pair int int))) "guarded self pair" [ (0, 0) ]
    (Pairs.to_list p);
  let n = 30 in
  let r = hub n in
  let overestimate =
    Guard.with_inject (Jp_adaptive.Inject.uniform 100.0) Guard.default
  in
  Alcotest.(check int) "guarded hub square" (n * n)
    (Pairs.count (Two_path.project ~guard:overestimate ~r ~s:r ()))

let test_optimizer_degenerate () =
  (* planning must never fail on degenerate inputs *)
  List.iter
    (fun r ->
      let p = Joinproj.Optimizer.plan ~r ~s:r () in
      Alcotest.(check bool) "join size nonneg" true (p.Joinproj.Optimizer.join_size >= 0);
      let pc = Joinproj.Optimizer.plan_counts ~r ~s:r () in
      Alcotest.(check bool) "counts join size nonneg" true
        (pc.Joinproj.Optimizer.join_size >= 0))
    [ empty; singleton; hub 50 ]

let test_estimator_degenerate () =
  Alcotest.(check int) "sampled empty" 0 (Joinproj.Estimator.sampled ~r:empty ~s:empty ());
  let lower, upper = Joinproj.Estimator.bounds (Joinproj.Estimator.summarize ~r:empty ~s:empty) in
  Alcotest.(check bool) "bounds ordered" true (lower <= upper)

(* R reaches y ids (up to 9) past S's y domain (3): those y have no S
   tuples.  Every engine variant — boolean/counts, WCOJ plan and
   partitioned under Matrix and Combinatorial — must agree with the
   hand-computed join instead of indexing S out of bounds. *)
let test_y_domain_mismatch () =
  let r = Relation.of_edges [| (0, 9); (1, 9); (0, 1); (1, 2) |] in
  let s = Relation.of_edges [| (0, 1); (1, 2); (2, 1) |] in
  let expected = [ (0, 0); (0, 2); (1, 1) ] in
  let counted_list c =
    let acc = ref [] in
    Jp_relation.Counted_pairs.iter (fun a b k -> acc := (a, b, k) :: !acc) c;
    List.sort compare !acc
  in
  let expected_counts = List.map (fun (a, b) -> (a, b, 1)) expected in
  Alcotest.(check (list (pair int int)))
    "expand" expected
    (Pairs.to_list (Jp_wcoj.Expand.project ~r ~s ()));
  Alcotest.(check (list (triple int int int)))
    "expand counts" expected_counts
    (counted_list (Jp_wcoj.Expand.project_counts ~r ~s ()));
  let plan decision =
    { Joinproj.Optimizer.decision; est_out = 1; join_size = 1; est_seconds = 0.0 }
  in
  List.iter
    (fun (name, plan) ->
      List.iter
        (fun (sname, strategy) ->
          let label = Printf.sprintf "%s %s" name sname in
          Alcotest.(check (list (pair int int)))
            ("boolean " ^ label) expected
            (Pairs.to_list (Two_path.project ?plan ~strategy ~r ~s ()));
          Alcotest.(check (list (triple int int int)))
            ("counts " ^ label) expected_counts
            (counted_list (Two_path.project_counts ?plan ~strategy ~r ~s ())))
        [ ("matrix", Two_path.Matrix); ("combinatorial", Two_path.Combinatorial) ])
    [
      ("planned", None);
      ("wcoj", Some (plan Joinproj.Optimizer.Wcoj));
      ("partitioned", Some (plan (Joinproj.Optimizer.Partitioned { d1 = 1; d2 = 1 })));
    ]

let suite =
  [
    Alcotest.test_case "two-path empty" `Quick test_two_path_empty;
    Alcotest.test_case "two-path singleton" `Quick test_two_path_singleton;
    Alcotest.test_case "two-path hub" `Quick test_two_path_hub;
    Alcotest.test_case "y domain past S's" `Quick test_y_domain_mismatch;
    Alcotest.test_case "star empty component" `Quick test_star_empty_component;
    Alcotest.test_case "ssj empty/tiny" `Quick test_ssj_empty_and_tiny;
    Alcotest.test_case "ssj identical sets" `Quick test_ssj_identical_sets;
    Alcotest.test_case "scj empty/single" `Quick test_scj_empty_and_single_element;
    Alcotest.test_case "bsi empty workload" `Quick test_bsi_empty_workload;
    Alcotest.test_case "guards" `Quick test_guards;
    Alcotest.test_case "guarded degenerate" `Quick test_guarded_degenerate;
    Alcotest.test_case "optimizer degenerate" `Quick test_optimizer_degenerate;
    Alcotest.test_case "estimator degenerate" `Quick test_estimator_degenerate;
  ]
