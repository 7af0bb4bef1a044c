module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Two_path = Joinproj.Two_path
module Optimizer = Joinproj.Optimizer
module Partition = Joinproj.Partition
module Estimator = Joinproj.Estimator

(* A deterministic machine model so optimizer decisions don't depend on
   the noisy calibration micro-benchmarks. *)
let fixed_machine =
  {
    Jp_matrix.Cost.ts = 1e-9;
    tm = 2e-8;
    ti = 6e-9;
    count_word = 1.5e-9;
    bool_word = 2e-9;
    cores = 4;
  }

let () = Jp_matrix.Cost.set_machine fixed_machine

let check_pairs name expected actual =
  Alcotest.(check (list (pair int int))) name expected actual

let test_partition_classification () =
  (* y=0 has degree 3 in both relations; y=1 degree 1. *)
  let r = Relation.of_edges [| (0, 0); (1, 0); (2, 0); (3, 1) |] in
  let s = Relation.of_edges [| (0, 0); (1, 0); (2, 0); (3, 1) |] in
  let p = Partition.make ~r ~s ~d1:1 ~d2:1 () in
  Alcotest.(check bool) "y=0 heavy" false (Partition.is_light_y p 0);
  Alcotest.(check bool) "y=1 light" true (Partition.is_light_y p 1);
  (* x degrees are all 1 <= d2, so no heavy endpoints despite heavy y *)
  Alcotest.(check int) "no heavy x" 0 (Array.length p.heavy_x);
  let p2 = Partition.make ~r ~s ~d1:3 ~d2:3 () in
  Alcotest.(check int) "all light" 0 (Array.length p2.heavy_y)

let test_partition_prunes_zero_rows () =
  (* x=0 is heavy by degree but only adjacent to light y's. *)
  let r =
    Relation.of_edges [| (0, 1); (0, 2); (0, 3); (1, 0); (2, 0); (3, 0); (4, 0) |]
  in
  let s =
    Relation.of_edges [| (9, 0); (8, 0); (7, 0); (6, 0); (5, 1); (5, 2); (5, 3) |]
  in
  let p = Partition.make ~r ~s ~d1:2 ~d2:2 () in
  Alcotest.(check (list int)) "heavy y" [ 0 ] (Array.to_list p.heavy_y);
  (* x=0 has degree 3 > 2 but no heavy y neighbour: pruned; same for z=5,
     whose neighbours y=1,2,3 are all light. *)
  Alcotest.(check (list int)) "heavy x pruned" [] (Array.to_list p.heavy_x);
  Alcotest.(check (list int)) "heavy z pruned" [] (Array.to_list p.heavy_z);
  Alcotest.check_raises "bad thresholds"
    (Invalid_argument "Partition.make: thresholds must be d1 >= 1 and d2 >= 0")
    (fun () -> ignore (Partition.make ~r ~s ~d1:0 ~d2:1 ()))

(* Δ₂ = 0 (the exact-count split): every endpoint adjacent to a heavy y
   spans the matrices, whatever its own degree. *)
let test_partition_d2_zero () =
  let adjacent_to_heavy rel (p : Partition.t) =
    List.filter
      (fun a ->
        Array.exists
          (fun b -> not (Partition.is_light_y p b))
          (Relation.adj_src rel a))
      (List.init (Relation.src_count rel) Fun.id)
  in
  let check_split name ~r ~s ~d1 =
    let p = Partition.make ~r ~s ~d1 ~d2:0 () in
    Alcotest.(check (list int))
      (name ^ ": heavy x") (adjacent_to_heavy r p) (Array.to_list p.heavy_x);
    Alcotest.(check (list int))
      (name ^ ": heavy z") (adjacent_to_heavy s p) (Array.to_list p.heavy_z);
    Array.iteri
      (fun i a -> Alcotest.(check int) (name ^ ": x index") i p.x_index.(a))
      p.heavy_x
  in
  (* y=0 is heavy at d1 = 2; x=0..2 have degree 1 yet join the matrices,
     x=3 (only light y's) stays out. *)
  let r = Relation.of_edges [| (0, 0); (1, 0); (2, 0); (3, 1); (3, 2) |] in
  let s = Relation.of_edges [| (5, 0); (6, 0); (7, 0); (8, 1) |] in
  check_split "tiny" ~r ~s ~d1:2;
  Alcotest.(check (list int)) "tiny: degree-1 x kept" [ 0; 1; 2 ]
    (Array.to_list (Partition.make ~r ~s ~d1:2 ~d2:0 ()).heavy_x);
  Alcotest.(check (list int)) "tiny: d2 = 1 drops them" []
    (Array.to_list (Partition.make ~r ~s ~d1:2 ~d2:1 ()).heavy_x);
  let r = Gen.skewed_relation ~seed:3 ~nx:60 ~ny:40 ~edges:400 () in
  let s = Gen.skewed_relation ~seed:4 ~nx:50 ~ny:40 ~edges:300 () in
  List.iter (fun d1 -> check_split (Printf.sprintf "skewed d1=%d" d1) ~r ~s ~d1) [ 1; 3; 8 ];
  Alcotest.check_raises "d1 = 0"
    (Invalid_argument "Partition.make: thresholds must be d1 >= 1 and d2 >= 0")
    (fun () -> ignore (Partition.make ~r ~s ~d1:0 ~d2:0 ()));
  Alcotest.check_raises "d2 = -1"
    (Invalid_argument "Partition.make: thresholds must be d1 >= 1 and d2 >= 0")
    (fun () -> ignore (Partition.make ~r ~s ~d1:1 ~d2:(-1) ()))

let forced_plan d1 d2 =
  {
    Optimizer.decision = Optimizer.Partitioned { d1; d2 };
    est_out = 1;
    join_size = 1;
    est_seconds = 0.0;
  }

let exhaustive_threshold_check ~r ~s =
  (* Algorithm 1 must be correct for EVERY threshold choice, matrix or
     combinatorial heavy strategy; optimality is the optimizer's problem. *)
  let expect = Gen.brute_two_path ~r ~s in
  List.iter
    (fun (d1, d2) ->
      List.iter
        (fun strategy ->
          let got =
            Two_path.project ~strategy ~plan:(forced_plan d1 d2) ~r ~s ()
          in
          let label = Printf.sprintf "d1=%d d2=%d" d1 d2 in
          check_pairs label expect (Gen.pairs_to_list got))
        [ Two_path.Matrix; Two_path.Combinatorial ])
    [ (1, 1); (1, 3); (2, 2); (3, 1); (5, 5); (100, 100) ]

let test_two_path_all_thresholds_uniform () =
  let r = Gen.random_relation ~seed:31 ~nx:25 ~ny:18 ~edges:130 () in
  let s = Gen.random_relation ~seed:32 ~nx:22 ~ny:18 ~edges:110 () in
  exhaustive_threshold_check ~r ~s

let test_two_path_all_thresholds_skewed () =
  let r = Gen.skewed_relation ~seed:33 ~nx:30 ~ny:25 ~edges:200 () in
  let s = Gen.skewed_relation ~seed:34 ~nx:28 ~ny:25 ~edges:180 () in
  exhaustive_threshold_check ~r ~s

let test_two_path_self_join () =
  let r = Gen.skewed_relation ~seed:35 ~nx:30 ~ny:30 ~edges:250 () in
  exhaustive_threshold_check ~r ~s:r

let test_two_path_planned () =
  let r = Gen.skewed_relation ~seed:36 ~nx:50 ~ny:40 ~edges:600 () in
  let s = Gen.skewed_relation ~seed:37 ~nx:45 ~ny:40 ~edges:550 () in
  let got = Two_path.project ~r ~s () in
  check_pairs "planned result" (Gen.brute_two_path ~r ~s) (Gen.pairs_to_list got)

let test_two_path_parallel () =
  let r = Gen.skewed_relation ~seed:38 ~nx:60 ~ny:50 ~edges:800 () in
  let s = Gen.skewed_relation ~seed:39 ~nx:55 ~ny:50 ~edges:700 () in
  let plan = forced_plan 2 3 in
  let seq = Two_path.project ~plan ~r ~s () in
  let par = Two_path.project ~domains:4 ~plan ~r ~s () in
  Alcotest.(check bool) "parallel = sequential" true (Pairs.equal seq par)

let prop_two_path_random =
  QCheck.Test.make ~name:"MMJoin = brute force on random instances" ~count:40
    QCheck.(triple small_int (int_range 1 6) (int_range 1 6))
    (fun (seed, d1, d2) ->
      let r = Gen.random_relation ~seed:(seed + 500) ~nx:15 ~ny:12 ~edges:70 () in
      let s = Gen.random_relation ~seed:(seed + 900) ~nx:14 ~ny:12 ~edges:60 () in
      let got = Two_path.project ~plan:(forced_plan d1 d2) ~r ~s () in
      Gen.pairs_to_list got = Gen.brute_two_path ~r ~s)

let counts_threshold_check ~r ~s =
  let expect = Gen.brute_two_path_counts ~r ~s in
  List.iter
    (fun d1 ->
      let got =
        Two_path.project_counts ~plan:(forced_plan d1 1) ~r ~s ()
      in
      Alcotest.(check (list (pair (pair int int) int)))
        (Printf.sprintf "counts d1=%d" d1)
        expect (Gen.counted_to_list got))
    [ 1; 2; 3; 10; 1000 ]

let test_counts_all_thresholds () =
  let r = Gen.skewed_relation ~seed:41 ~nx:25 ~ny:20 ~edges:160 () in
  let s = Gen.skewed_relation ~seed:42 ~nx:24 ~ny:20 ~edges:150 () in
  counts_threshold_check ~r ~s

let test_counts_cap_fallback () =
  let r = Gen.skewed_relation ~seed:43 ~nx:20 ~ny:15 ~edges:100 () in
  let s = Gen.skewed_relation ~seed:44 ~nx:19 ~ny:15 ~edges:90 () in
  let got =
    Two_path.project_counts ~matrix_cell_cap:1 ~plan:(forced_plan 2 1) ~r ~s ()
  in
  Alcotest.(check (list (pair (pair int int) int)))
    "tiny cap falls back to combinatorial heavy part"
    (Gen.brute_two_path_counts ~r ~s)
    (Gen.counted_to_list got)

let test_counts_planned () =
  let r = Gen.skewed_relation ~seed:45 ~nx:40 ~ny:30 ~edges:500 () in
  let got = Two_path.project_counts ~r ~s:r () in
  Alcotest.(check (list (pair (pair int int) int)))
    "planned counts" (Gen.brute_two_path_counts ~r ~s:r) (Gen.counted_to_list got)

let test_estimator_bounds () =
  let r = Gen.random_relation ~seed:46 ~nx:20 ~ny:15 ~edges:100 () in
  let s = Gen.random_relation ~seed:47 ~nx:18 ~ny:15 ~edges:90 () in
  let summary = Estimator.summarize ~r ~s in
  let lower, upper = Estimator.bounds summary in
  let est = Estimator.estimate summary in
  let truth = List.length (Gen.brute_two_path ~r ~s) in
  Alcotest.(check bool) "lower <= upper" true (lower <= upper);
  Alcotest.(check bool) "estimate within bounds" true (lower <= est && est <= upper);
  Alcotest.(check bool) "truth within bounds" true (lower <= truth && truth <= upper)

let test_estimator_sampled () =
  let r = Gen.skewed_relation ~seed:49 ~nx:40 ~ny:30 ~edges:400 () in
  let truth = List.length (Gen.brute_two_path ~r ~s:r) in
  let lower, upper = Estimator.bounds (Estimator.summarize ~r ~s:r) in
  (* full-domain sample must be exact (modulo duplicate draws, so compare
     with a generous sample) *)
  let est = Estimator.sampled ~sample:10_000 ~r ~s:r () in
  Alcotest.(check bool) "sampled within bounds" true (lower <= est && est <= upper);
  let ratio = float_of_int (max est truth) /. float_of_int (max 1 (min est truth)) in
  Alcotest.(check bool) "sampled within 2x of truth" true (ratio < 2.0);
  (* determinism *)
  Alcotest.(check int) "deterministic" est (Estimator.sampled ~sample:10_000 ~r ~s:r ())

let test_optimizer_wcoj_shortcircuit () =
  (* A nearly functional relation: join size ~ N, far below 20N. *)
  let edges = Array.init 200 (fun i -> (i, i mod 50)) in
  let r = Relation.of_edges edges in
  let plan = Optimizer.plan ~machine:fixed_machine ~r ~s:r () in
  (match plan.decision with
  | Optimizer.Wcoj -> ()
  | Optimizer.Partitioned _ -> Alcotest.fail "expected wcoj shortcircuit");
  Alcotest.(check bool) "explain mentions wcoj" true
    (String.length (Optimizer.explain plan) > 0)

let test_optimizer_picks_partition_on_dense () =
  (* A dense block: every x shares every y; join size n^3-ish >> 20N. *)
  let n = 40 in
  let edges =
    Array.init (n * n) (fun i -> (i / n, i mod n))
  in
  let r = Relation.of_edges edges in
  let plan = Optimizer.plan ~machine:fixed_machine ~r ~s:r () in
  (match plan.decision with
  | Optimizer.Partitioned { d1; d2 } ->
    Alcotest.(check bool) "valid thresholds" true (d1 >= 1 && d2 >= 1)
  | Optimizer.Wcoj -> Alcotest.fail "expected partitioned plan on dense block");
  (* Whatever the optimizer chose, the answer must still be right. *)
  let got = Two_path.project ~plan ~r ~s:r () in
  Alcotest.(check int) "dense clique output" (n * n) (Pairs.count got)

let test_theoretical_thresholds () =
  (* Case 1: |OUT| <= N *)
  let d1, d2 = Optimizer.theoretical_thresholds ~n:1000 ~out:125 in
  Alcotest.(check int) "case1 d1 = out^1/3" 5 d1;
  Alcotest.(check int) "case1 d2 = n/out^2/3" 40 d2;
  (* Case 2: |OUT| > N: d1 = d2 *)
  let d1, d2 = Optimizer.theoretical_thresholds ~n:1000 ~out:10_000 in
  Alcotest.(check int) "case2 equal" d1 d2;
  Alcotest.(check bool) "case2 in range" true (d1 >= 1 && d1 <= 1000);
  (* clamping *)
  let d1, d2 = Optimizer.theoretical_thresholds ~n:4 ~out:1 in
  Alcotest.(check bool) "clamped" true (d1 >= 1 && d1 <= 4 && d2 >= 1 && d2 <= 4);
  Alcotest.check_raises "guard" (Invalid_argument "Optimizer.theoretical_thresholds")
    (fun () -> ignore (Optimizer.theoretical_thresholds ~n:0 ~out:1))

let test_plan_info () =
  let r = Gen.skewed_relation ~seed:48 ~nx:30 ~ny:25 ~edges:300 () in
  let pairs, plan = Two_path.project_with_plan_info ~r ~s:r () in
  Alcotest.(check bool) "count positive" true (Pairs.count pairs > 0);
  Alcotest.(check bool) "plan join size positive" true (plan.Optimizer.join_size > 0)

let suite =
  [
    Alcotest.test_case "partition classification" `Quick test_partition_classification;
    Alcotest.test_case "partition prunes zero rows" `Quick test_partition_prunes_zero_rows;
    Alcotest.test_case "partition d2 = 0 spans heavy-y endpoints" `Quick
      test_partition_d2_zero;
    Alcotest.test_case "two-path thresholds uniform" `Quick test_two_path_all_thresholds_uniform;
    Alcotest.test_case "two-path thresholds skewed" `Quick test_two_path_all_thresholds_skewed;
    Alcotest.test_case "two-path self join" `Quick test_two_path_self_join;
    Alcotest.test_case "two-path planned" `Quick test_two_path_planned;
    Alcotest.test_case "two-path parallel" `Quick test_two_path_parallel;
    QCheck_alcotest.to_alcotest prop_two_path_random;
    Alcotest.test_case "counts thresholds" `Quick test_counts_all_thresholds;
    Alcotest.test_case "counts cap fallback" `Quick test_counts_cap_fallback;
    Alcotest.test_case "counts planned" `Quick test_counts_planned;
    Alcotest.test_case "estimator bounds" `Quick test_estimator_bounds;
    Alcotest.test_case "estimator sampled" `Quick test_estimator_sampled;
    Alcotest.test_case "optimizer wcoj shortcircuit" `Quick test_optimizer_wcoj_shortcircuit;
    Alcotest.test_case "optimizer dense partition" `Quick test_optimizer_picks_partition_on_dense;
    Alcotest.test_case "theoretical thresholds" `Quick test_theoretical_thresholds;
    Alcotest.test_case "plan info" `Quick test_plan_info;
  ]
