module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Two_path = Joinproj.Two_path
module Optimizer = Joinproj.Optimizer
module Partition = Joinproj.Partition
module Estimator = Joinproj.Estimator
module Tile = Jp_matrix.Tile

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

(* A self-join builds its z arrays by sharing the x arrays; the result
   must equal, field by field, the partition of r against a physically
   distinct copy of r (which builds both sides). *)
let test_partition_self_join_shared () =
  let copy r =
    Relation.of_edges ~src_count:(Relation.src_count r)
      ~dst_count:(Relation.dst_count r) (Testkit.Relation.to_edges r)
  in
  let fields (p : Partition.t) =
    List.map Array.to_list [ p.heavy_x; p.heavy_y; p.heavy_z; p.x_index; p.y_index; p.z_index ]
  in
  List.iter
    (fun (name, r) ->
      let r' = copy r in
      Alcotest.(check bool) (name ^ ": a distinct copy") false (r == r');
      List.iter
        (fun (d1, d2) ->
          let label = Printf.sprintf "%s d1=%d d2=%d" name d1 d2 in
          let shared = Partition.make ~r ~s:r ~d1 ~d2 ()
          and built = Partition.make ~r ~s:r' ~d1 ~d2 () in
          Alcotest.(check (pair int int)) (label ^ ": thresholds")
            (built.d1, built.d2) (shared.d1, shared.d2);
          Alcotest.(check (list bool)) (label ^ ": light y")
            (Array.to_list built.light_y) (Array.to_list shared.light_y);
          Alcotest.(check (list (list int))) (label ^ ": arrays")
            (fields built) (fields shared);
          Alcotest.(check bool) (label ^ ": z arrays shared") true
            (shared.heavy_z == shared.heavy_x && shared.z_index == shared.x_index))
        [ (1, 1); (2, 0); (3, 2); (8, 4) ])
    [
      ("skewed", Gen.skewed_relation ~seed:5 ~nx:70 ~ny:45 ~edges:500 ());
      ("widened", Relation.of_edges ~src_count:9 ~dst_count:6
                    [| (0, 0); (1, 0); (2, 0); (2, 1); (3, 1); (4, 1); (5, 2) |]);
    ]

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

(* Light x ids of one or two neighbours only (a few x have none, the
   last six are heavy): under every (Δ₁, Δ₂) the light merge writes
   their plain rows directly, as the list itself or the union of two. *)
let test_two_path_all_thresholds_small_rows () =
  let g = Jp_util.Rng.create 38 in
  let edges =
    List.concat
      (List.init 40 (fun x ->
           let deg =
             if x >= 34 then 8 + Jp_util.Rng.int g 6
             else if x mod 7 = 0 then 0
             else 1 + Jp_util.Rng.int g 2
           in
           List.init deg (fun _ -> (x, Jp_util.Rng.int g 20))))
  in
  let r = Relation.of_edges ~src_count:40 ~dst_count:20 (Array.of_list edges) in
  let s = Gen.skewed_relation ~seed:39 ~nx:28 ~ny:20 ~edges:180 () in
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
  (* The cell cap is a third of the guard's cells budget: one cell. *)
  let guard =
    {
      Jp_adaptive.Guard.default with
      budget = { Jp_adaptive.Guard.max_seconds = None; max_cells = Some 3 };
    }
  in
  let got =
    Two_path.project_counts ~guard ~plan:(forced_plan 2 1) ~r ~s ()
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
  let plan =
    Testkit.with_machine Testkit.fixed_machine (fun () ->
        Optimizer.plan ~r ~s:r ())
  in
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
  let plan =
    Testkit.with_machine Testkit.fixed_machine (fun () ->
        Optimizer.plan ~r ~s:r ())
  in
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
  let plan = Optimizer.plan ~r ~s:r () in
  let pairs = Two_path.project ~plan ~r ~s:r () in
  Alcotest.(check bool) "count positive" true (Pairs.count pairs > 0);
  Alcotest.(check bool) "plan join size positive" true (plan.Optimizer.join_size > 0)

(* ------------------------------------------------------------------ *)
(* Split heavy-x rows: product columns and light lists meet per z      *)

module Counted_pairs = Testkit.Counted_pairs

(* Appends a fixed gadget past the ids of [r] and [s].  At d1 in [2, 4]
   and d2 in [1, 4]:
   - x_m (heavy) meets heavy z_h through the product (heavy y_h) and
     through light lists (y_l and one more), and light z_l through y_l:
     light and heavy z in one row, and light-y lists reaching a heavy z;
   - x_e (heavy) reaches only heavy y_e, whose S-side z all have degree
     1: its boolean product row is empty;
   - for the self-join of the returned R: light y_s = {x_m, f} with f a
     heavy x above x_m, and light y_t = {x_m, x_t} with x_t adjacent to
     light y only, so x_m's upper row meets a heavy and a light z.  The
     last heavy x of any triangle has an empty product row. *)
let with_gadget r s =
  let nx = Relation.src_count r and nz = Relation.src_count s in
  let y0 = max (Relation.dst_count r) (Relation.dst_count s) in
  let x_m = nx and x_e = nx + 1 and x_t = nx + 12 in
  let z_h = nz and z_l = nz + 1 in
  let y_h = y0 and y_e = y0 + 1 and y_l = y0 + 2 and y_s = y0 + 11 and y_t = y0 + 12 in
  let span a n = List.init n (fun i -> a + i) in
  let r_gadget =
    List.map (fun x -> (x, y_h)) (x_m :: span (nx + 2) 5)
    @ List.map (fun x -> (x, y_e)) (x_e :: span (nx + 7) 5)
    @ List.map (fun y -> (x_m, y)) [ y_l; y0 + 3; y0 + 4; y0 + 5 ]
    @ List.map (fun y -> (x_e, y)) (span (y0 + 6) 4)
    @ [ (x_m, y_s); (nx + 2, y_s); (x_m, y_t); (x_t, y_t) ]
  in
  let s_gadget =
    List.map (fun z -> (z, y_h)) (z_h :: span (nz + 2) 5)
    @ List.map (fun z -> (z, y_e)) (span (nz + 7) 6)
    @ [ (z_h, y_l); (z_l, y_l) ]
    @ List.map (fun y -> (z_h, y)) [ y0 + 3; y0 + 4; y0 + 10 ]
  in
  let extend rel extra ~src_count =
    let edges = ref extra in
    Relation.iter (fun a b -> edges := (a, b) :: !edges) rel;
    Relation.of_edges ~src_count ~dst_count:(y0 + 13) (Array.of_list !edges)
  in
  (extend r r_gadget ~src_count:(nx + 13), extend s s_gadget ~src_count:(nz + 13))

(* The gadget's rows are what [with_gadget] says at every threshold the
   property below draws. *)
let test_gadget_cases () =
  let r0 = Gen.random_relation ~seed:1 ~nx:40 ~ny:20 ~edges:400 () in
  let s0 = Gen.random_relation ~seed:2 ~nx:30 ~ny:20 ~edges:300 () in
  let r, s = with_gadget r0 s0 in
  let x_m = 40 and x_e = 41 and z_h = 30 and z_l = 31 and y_l = 22 in
  for d1 = 2 to 4 do
    for d2 = 1 to 4 do
      let p = Partition.make ~r ~s ~d1 ~d2 () in
      let name what = Printf.sprintf "d1=%d d2=%d: %s" d1 d2 what in
      let row x = p.x_index.(x) in
      Alcotest.(check bool) (name "x_m, x_e heavy rows") true (row x_m >= 0 && row x_e >= 0);
      Alcotest.(check bool) (name "z_h a column, z_l not") true
        (p.z_index.(z_h) >= 0 && p.z_index.(z_l) < 0);
      Alcotest.(check bool) (name "y_l light") true (Partition.is_light_y p y_l);
      let m = Two_path.heavy_product ~r ~s p in
      Alcotest.(check bool) (name "x_m's product row holds z_h") true
        (Jp_matrix.Boolmat.mem m (row x_m) p.z_index.(z_h));
      Alcotest.(check int) (name "x_e's product row is empty") 0
        (Jp_matrix.Boolmat.row_nnz m (row x_e))
    done
  done

(* A memo that builds each intermediate once and keeps a digest of every
   row taken right after the build; [unchanged ()] checks that no merge
   has written a memoized value since. *)
let recording_memo () =
  let digest_rows n row = Array.init n (fun i -> Digest.string (Marshal.to_string (row i) [])) in
  let rows_digest (h : Two_path.heavy_rows) =
    Array.append
      (digest_rows (Array.length h.light_z) (Array.get h.light_z))
      [| Digest.string (Marshal.to_string (h.stride, h.bits) []) |]
  in
  let count_digest (m : Jp_matrix.Intmat.t) =
    digest_rows m.Jp_matrix.Intmat.rows (Jp_matrix.Intmat.row m)
  in
  let rows = ref [] and counts = ref [] and uppers = ref [] in
  let remember table key digest build =
    match List.assoc_opt key !table with
    | Some (m, _) -> m
    | None ->
      let m = build () in
      table := (key, (m, digest m)) :: !table;
      m
  in
  let memo =
    {
      Two_path.memo_prepared = (fun build -> build ());
      memo_heavy_rows = (fun ~d1 ~d2 build -> remember rows (d1, d2) rows_digest build);
      memo_count_product = (fun ~d1 build -> remember counts d1 count_digest build);
      memo_upper_product = (fun ~d1 build -> remember uppers d1 count_digest build);
    }
  in
  let unchanged () =
    List.for_all (fun (_, (h, d)) -> rows_digest h = d) !rows
    && List.for_all (fun (_, (m, d)) -> count_digest m = d) !counts
    && List.for_all (fun (_, (m, d)) -> count_digest m = d) !uppers
  in
  (memo, unchanged)

(* The z > x pairs of the counted self-join with at least [c] witnesses. *)
let ssj_oracle r ~c =
  let counts = Jp_wcoj.Expand.project_counts ~r ~s:r () in
  Pairs.of_rows_unchecked
    (Array.init (Relation.src_count r) (fun x ->
         let zs, ks = Counted_pairs.row counts x in
         let keep = ref [] in
         Array.iteri (fun i z -> if z > x && ks.(i) >= c then keep := z :: !keep) zs;
         Array.of_list (List.rev !keep)))

let prop_split_invisible =
  let gen =
    QCheck.Gen.(
      pair
        (triple small_nat bool (oneofl [ 1; 3 ]))
        (triple (int_range 2 4) (int_range 1 4) (oneofl [ 4; 6; 11 ])))
  in
  let print ((seed, skewed, domains), (d1, d2, bits)) =
    Printf.sprintf "seed=%d skewed=%b domains=%d d1=%d d2=%d bits=%d" seed skewed
      domains d1 d2 bits
  in
  QCheck.Test.make ~name:"split heavy rows: results equal Expand, memo untouched"
    ~count:40 (QCheck.make ~print gen)
    (fun ((seed, skewed, domains), (d1, d2, bits)) ->
      let r0 =
        if skewed then Gen.skewed_relation ~seed:(seed + 31_000) ~nx:40 ~ny:20 ~edges:400 ()
        else Gen.random_relation ~seed:(seed + 31_000) ~nx:40 ~ny:20 ~edges:400 ()
      in
      let s0 = Gen.random_relation ~seed:(seed + 31_500) ~nx:30 ~ny:20 ~edges:300 () in
      let r, s = with_gadget r0 s0 in
      let plan = forced_plan d1 d2 and tile = Tile.config ~tile_bits:bits () in
      let memo, unchanged = recording_memo () in
      let ssj_memo, ssj_unchanged = recording_memo () in
      let twice f =
        let a = f () in
        (a, f ())
      in
      let p1, p2 = twice (fun () -> Two_path.project ~domains ~plan ~memo ~r ~s ()) in
      let c1, c2 =
        twice (fun () -> Two_path.project_counts ~domains ~plan ~memo ~tile ~r ~s ())
      in
      let expect = Jp_wcoj.Expand.project ~r ~s () in
      let expect_counts = Jp_wcoj.Expand.project_counts ~r ~s () in
      let same_ssj c =
        let a, b = twice (fun () -> Two_path.ssj ~domains ~plan ~memo:ssj_memo ~c r) in
        let oracle = ssj_oracle r ~c in
        Pairs.equal a oracle && Pairs.equal b oracle
      in
      Pairs.equal p1 expect && Pairs.equal p2 expect
      && Counted_pairs.equal c1 expect_counts
      && Counted_pairs.equal c2 expect_counts
      && same_ssj 1 && same_ssj 2 && same_ssj 3 && unchanged () && ssj_unchanged ())

(* The values of [counters] that running [f] records. *)
let recorded counters f =
  Jp_obs.reset ();
  Jp_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Jp_obs.disable ();
      Jp_obs.reset ())
    (fun () ->
      f ();
      List.map Jp_obs.value counters)

(* The work counters one call records: light probes, boolean and count
   MM word ops, stamp misses (= pairs produced) and stamp hits
   (= presented - produced). *)
let work_counters f =
  recorded
    Jp_obs.C.[ light_probes; mm_bool_word_ops; mm_count_word_ops; stamp_misses; stamp_hits ]
    (fun () -> ignore (f ()))

(* Splitting heavy rows by column changes how rows are assembled, not
   how much work they take: on a fixed dense family each merge records
   the same counters as the per-bit merge it replaced. *)
let test_split_work_counters () =
  let r = Gen.skewed_relation ~seed:71 ~nx:300 ~ny:60 ~edges:6000 () in
  let s = Gen.skewed_relation ~seed:72 ~nx:280 ~ny:60 ~edges:5600 () in
  let check name expect f = Alcotest.(check (list int)) name expect (work_counters f) in
  check "project" [ 263730; 6225; 0; 83988; 212492 ] (fun () ->
      Two_path.project ~plan:(forced_plan 40 12) ~r ~s ());
  (* Rows of one or two lists are written directly, not stamped; the
     probes and the stamp hits and misses still count every list id and
     every row id, as when each list was stamped. *)
  check "expand" [ 457533; 0; 0; 83988; 373545 ] (fun () ->
      Jp_wcoj.Expand.project ~r ~s ());
  check "project_counts" [ 50480; 0; 84000; 83988; 50470 ] (fun () ->
      Two_path.project_counts ~plan:(forced_plan 60 0) ~r ~s ());
  (* The SSJ's product here prices to saturating planes (300 sets, 2,681
     ones over 21 heavy elements), so its count word ops are plane words
     written, not the 44,850 triangle cells; the merge counters are the
     triangle's. *)
  check "ssj" [ 26712; 0; 16296; 44842; 26702 ] (fun () ->
      Two_path.ssj ~plan:(forced_plan 60 0) ~c:2 r)

(* The boolean 2-path ORs heavy rows instead of running the product,
   and records the product's word ops all the same: one
   ⌈|heavy_z| / 62⌉ per (heavy x, heavy y) tuple of R⁺, which is what
   [heavy_product]'s [Tile.mul] records on the same partition.  No tile
   kernel runs. *)
let test_heavy_rows_word_ops () =
  let recorded f =
    recorded Jp_obs.C.[ mm_bool_word_ops; tile_builds; tile_products ] (fun () -> ignore (f ()))
  in
  List.iter
    (fun (name, r, s, (d1, d2)) ->
      let p = Partition.make ~r ~s ~d1 ~d2 () in
      let words = Jp_util.Bitset.payload_words (Array.length p.heavy_z) in
      let from_partition =
        Array.fold_left
          (fun n x ->
            n
            + words
              * Array.fold_left
                  (fun k y -> if Partition.is_light_y p y then k else k + 1)
                  0 (Relation.adj_src r x))
          0 p.heavy_x
      in
      let product = recorded (fun () -> Two_path.heavy_product ~r ~s p) in
      Alcotest.(check bool) (name ^ ": R⁺ has tuples") true (from_partition > 0);
      Alcotest.(check int) (name ^ ": heavy_product") from_partition (List.hd product);
      List.iter
        (fun domains ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: project at domains=%d" name domains)
            [ from_partition; 0; 0 ]
            (recorded (fun () -> Two_path.project ~domains ~plan:(forced_plan d1 d2) ~r ~s ())))
        [ 1; 3 ])
    [
      ( "skewed pair",
        Gen.skewed_relation ~seed:71 ~nx:300 ~ny:60 ~edges:6000 (),
        Gen.skewed_relation ~seed:72 ~nx:280 ~ny:60 ~edges:5600 (),
        (40, 12) );
      (let r = Gen.skewed_relation ~seed:73 ~nx:200 ~ny:150 ~edges:4000 () in
       ("skewed self-join", r, r, (3, 2)));
    ]

(* Algorithm 3 prices the boolean heavy part by the row-ORs the merge
   runs: nnz(R⁺) rows of ⌈w/62⌉ words, beside the v bit rows.  On a
   self-join in which every set holds element 0 (so every z is next to
   a heavy y), the plan's price at Δ₂ = 0 is the price of the engine's
   own partition: under a machine that charges only [bool_word] it
   fixes nnz, and under one that charges only [tm] it fixes v·⌈w/62⌉,
   so its word count nnz·⌈w/62⌉ is the [mm.bool_word_ops] that
   [project] records.  At Δ₂ > 0 the plan bounds nnz and w from above,
   so the price is an upper bound. *)
let test_row_or_price_words () =
  let module Cost = Jp_matrix.Cost in
  let only_bool =
    { Cost.ts = 0.0; tm = 0.0; ti = 0.0; count_word = 0.0; bool_word = 1.0; cores = 1 }
  in
  let only_tm = { only_bool with tm = 4.0; bool_word = 0.0 } in
  let r =
    let rest = Testkit.Relation.to_edges (Gen.skewed_relation ~seed:74 ~nx:150 ~ny:40 ~edges:1800 ()) in
    Relation.of_edges (Array.append (Array.init 150 (fun x -> (x, 0))) rest)
  in
  let prep = Optimizer.prepare ~r ~s:r in
  let dom_x = float_of_int (Optimizer.summary prep).Estimator.dom_x in
  List.iter
    (fun (d1, d2) ->
      let label = Printf.sprintf "d1=%d d2=%d" d1 d2 in
      let p = Partition.make ~r ~s:r ~d1 ~d2 () in
      let _, v, w = Partition.dims p in
      let words = Jp_util.Bitset.payload_words w in
      let ops =
        List.hd
          (recorded Jp_obs.C.[ mm_bool_word_ops ] (fun () ->
               ignore (Two_path.project ~plan:(forced_plan d1 d2) ~r ~s:r ())))
      in
      Alcotest.(check bool) (label ^ ": R⁺ has tuples") true (ops > 0);
      Alcotest.(check int) (label ^ ": whole rows") 0 (ops mod words);
      (* The plan's heavy part: the light part is 0 under [only_bool]
         and [tm]·dom_x under [only_tm]. *)
      let planned (m : Cost.machine) =
        Testkit.with_machine m (fun () ->
            Optimizer.estimate_cost_prepared prep (Optimizer.Partitioned { d1; d2 }))
        -. (m.tm *. dom_x)
      in
      let ran m = Cost.row_or_seconds m ~v ~w ~nnz:(ops / words) in
      List.iter
        (fun (name, m) ->
          if d2 = 0 then
            Alcotest.(check (float 0.0)) (label ^ ": " ^ name) (ran m) (planned m)
          else
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s %g >= %g" label name (planned m) (ran m))
              true
              (planned m >= ran m))
        [ ("nnz", only_bool); ("bit rows", only_tm) ])
    [ (1, 0); (5, 0); (40, 0); (5, 2); (5, 12); (40, 8) ]

(* The full threshold grid, Δ₁ past every y degree and Δ₂ from 0 past
   every endpoint degree, × strategy × guard budget {one cell,
   unbounded}: the boolean and counted 2-path equal the expansion, and
   an edge list given twice over builds the same relation and the same
   answers. *)
let test_threshold_grid_sweep () =
  let edges = Testkit.Relation.to_edges (Gen.skewed_relation ~seed:75 ~nx:24 ~ny:14 ~edges:150 ()) in
  let r = Relation.of_edges edges in
  let s = Gen.random_relation ~seed:76 ~nx:20 ~ny:14 ~edges:110 () in
  let doubled = Relation.of_edges (Array.append edges (Array.of_list (List.rev (Array.to_list edges)))) in
  let tiny =
    {
      Jp_adaptive.Guard.default with
      budget = { Jp_adaptive.Guard.max_seconds = None; max_cells = Some 1 };
    }
  in
  let max_deg f n = List.fold_left max 0 (List.init n f) in
  let dy = max (max_deg (Relation.deg_dst r) (Relation.dst_count r))
      (max_deg (Relation.deg_dst s) (Relation.dst_count s)) in
  let dx = max (max_deg (Relation.deg_src r) (Relation.src_count r))
      (max_deg (Relation.deg_src s) (Relation.src_count s)) in
  List.iter
    (fun (name, (r, s), (r', s')) ->
      let expect = Jp_wcoj.Expand.project ~r ~s () in
      let expect_counts = Jp_wcoj.Expand.project_counts ~r ~s () in
      for d1 = 1 to dy + 1 do
        for d2 = 0 to dx + 1 do
          List.iter
            (fun strategy ->
              List.iter
                (fun guard ->
                  let plan = forced_plan d1 d2 in
                  let label =
                    Printf.sprintf "%s d1=%d d2=%d %s %s" name d1 d2
                      (match strategy with
                      | Two_path.Matrix -> "matrix"
                      | Two_path.Combinatorial -> "combinatorial")
                      (if Option.is_some guard then "tiny" else "unbounded")
                  in
                  Alcotest.(check bool) (label ^ ": project") true
                    (Pairs.equal expect
                       (Two_path.project ~strategy ~plan ?guard ~r:r' ~s:s' ()));
                  Alcotest.(check bool) (label ^ ": project_counts") true
                    (Counted_pairs.equal expect_counts
                       (Two_path.project_counts ~strategy ~plan ?guard ~r:r' ~s:s' ())))
                [ None; Some tiny ])
            [ Two_path.Matrix; Two_path.Combinatorial ]
        done
      done)
    [
      ("r-s", (r, s), (r, s));
      ("r-s doubled", (r, s), (doubled, s));
      ("self", (r, r), (r, r));
      ("self doubled", (r, r), (doubled, doubled));
    ]

(* A cancel tripped once the boolean merge has started — by the token's
   poll hook, as soon as the first merged rows have recorded their
   probes — still stops the query with [Cancelled Requested], on one
   domain (between guard chunks, before the merge ends) and on three
   (at the split's polls). *)
let test_merge_cancel () =
  let r = Gen.random_relation ~seed:2200 ~nx:2200 ~ny:40 ~edges:17_600 () in
  let plan = forced_plan 1 1 in
  let probes f = List.hd (recorded [ Jp_obs.C.light_probes ] f) in
  List.iter
    (fun domains ->
      let all = probes (fun () -> ignore (Two_path.project ~domains ~plan ~r ~s:r ())) in
      let cancel = Jp_util.Cancel.create () in
      Jp_util.Cancel.set_hook cancel (fun () ->
          if Jp_obs.value Jp_obs.C.light_probes > 0 then Jp_util.Cancel.cancel cancel);
      let ran =
        probes (fun () ->
            Alcotest.check_raises
              (Printf.sprintf "cancelled at domains=%d" domains)
              (Jp_util.Cancel.Cancelled Jp_util.Cancel.Requested)
              (fun () -> ignore (Two_path.project ~domains ~plan ~cancel ~r ~s:r ())))
      in
      Alcotest.(check bool)
        (Printf.sprintf "the merge ran at domains=%d (%d of %d probes)" domains ran all)
        true
        (ran > 0 && if domains = 1 then ran < all else ran <= all))
    [ 1; 3 ]

(* The SSJ's saturating planes run inside the count merge and record
   c·(⌈w/62⌉ − ⌊(i + 1)/62⌋) [mm.count_word_ops] per bit row saturated
   into heavy x row i, none on the last row (no column past the
   diagonal): on a fixed dense family whose product prices to planes,
   at domains 1 and 3 and c = 2 and 3, the counter equals that closed
   form over the partition, and no tile kernel runs. *)
let test_ssj_plane_word_ops () =
  let r = Gen.skewed_relation ~seed:71 ~nx:300 ~ny:60 ~edges:6000 () in
  let d1 = 60 in
  let p = Partition.make ~r ~s:r ~d1 ~d2:0 () in
  let w = Array.length p.heavy_z in
  let words = Jp_util.Bitset.payload_words w in
  let closed c =
    let total = ref 0 in
    Array.iteri
      (fun i x ->
        if i + 1 < w then
          let heavy_y =
            Array.fold_left
              (fun k y -> if Partition.is_light_y p y then k else k + 1)
              0 (Relation.adj_src r x)
          in
          total := !total + (heavy_y * c * (words - ((i + 1) / 62))))
      p.heavy_x;
    !total
  in
  List.iter
    (fun (domains, c) ->
      Alcotest.(check (list int))
        (Printf.sprintf "domains=%d c=%d: word ops, one plane product, no tile" domains c)
        [ closed c; 1; 0 ]
        (recorded
           Jp_obs.C.[ mm_count_word_ops; ssj_planes; tile_products ]
           (fun () -> ignore (Two_path.ssj ~domains ~plan:(forced_plan d1 0) ~c r))))
    [ (1, 2); (3, 2); (1, 3); (3, 3) ]

(* A cancel tripped once the SSJ's plane merge has started — by the
   token's poll hook, as soon as the first merged rows have recorded
   their plane words — stops the query with [Cancelled Requested] on one
   domain (at the split's sub-chunk poll, before the merge ends) and on
   three. *)
let test_ssj_merge_cancel () =
  let r = Gen.random_relation ~seed:2300 ~nx:9000 ~ny:200 ~edges:27_000 () in
  let plan = forced_plan 1 0 in
  let words f = List.hd (recorded [ Jp_obs.C.mm_count_word_ops ] f) in
  List.iter
    (fun domains ->
      let all = words (fun () -> ignore (Two_path.ssj ~domains ~plan ~c:2 r)) in
      let cancel = Jp_util.Cancel.create () in
      Jp_util.Cancel.set_hook cancel (fun () ->
          if Jp_obs.value Jp_obs.C.mm_count_word_ops > 0 then Jp_util.Cancel.cancel cancel);
      let ran =
        words (fun () ->
            Alcotest.check_raises
              (Printf.sprintf "cancelled at domains=%d" domains)
              (Jp_util.Cancel.Cancelled Jp_util.Cancel.Requested)
              (fun () -> ignore (Two_path.ssj ~domains ~plan ~cancel ~c:2 r)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "the plane merge ran at domains=%d (%d of %d words)" domains ran all)
        true
        (ran > 0 && if domains = 1 then ran < all else ran <= all))
    [ 1; 3 ]

let suite =
  [
    Alcotest.test_case "partition classification" `Quick test_partition_classification;
    Alcotest.test_case "partition prunes zero rows" `Quick test_partition_prunes_zero_rows;
    Alcotest.test_case "partition d2 = 0 spans heavy-y endpoints" `Quick
      test_partition_d2_zero;
    Alcotest.test_case "partition of a self-join shares arrays" `Quick
      test_partition_self_join_shared;
    Alcotest.test_case "two-path thresholds uniform" `Quick test_two_path_all_thresholds_uniform;
    Alcotest.test_case "two-path thresholds skewed" `Quick test_two_path_all_thresholds_skewed;
    Alcotest.test_case "two-path thresholds one- and two-list rows" `Quick
      test_two_path_all_thresholds_small_rows;
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
    Alcotest.test_case "split gadget has its cases" `Quick test_gadget_cases;
    QCheck_alcotest.to_alcotest prop_split_invisible;
    Alcotest.test_case "split rows keep the work counters" `Quick test_split_work_counters;
    Alcotest.test_case "heavy rows record the product's word ops" `Quick
      test_heavy_rows_word_ops;
    Alcotest.test_case "row-OR price counts the words that run" `Quick
      test_row_or_price_words;
    Alcotest.test_case "threshold grid sweep" `Quick test_threshold_grid_sweep;
    Alcotest.test_case "boolean merge cancel" `Quick test_merge_cancel;
    Alcotest.test_case "ssj plane merge word ops" `Quick test_ssj_plane_word_ops;
    Alcotest.test_case "ssj plane merge cancel" `Quick test_ssj_merge_cancel;
  ]
