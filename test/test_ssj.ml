module Relation = Jp_relation.Relation
module Pairs = Testkit.Pairs
module Size_aware = Jp_ssj.Size_aware
module Size_aware_pp = Jp_ssj.Size_aware_pp
module Mm_ssj = Jp_ssj.Mm_ssj
module Ordered = Jp_ssj.Ordered
module Overlap_tree = Jp_ssj.Overlap_tree
module Tile = Jp_matrix.Tile

(* Brute force: all unordered pairs with overlap >= c. *)
let brute ~c r =
  let n = Relation.src_count r in
  let acc = ref [] in
  for j = n - 1 downto 0 do
    for i = j - 1 downto 0 do
      if Jp_ssj.Common.overlap r i j >= c then acc := (i, j) :: !acc
    done
  done;
  List.sort compare !acc

(* The reference threshold over a counted self-join: pairs (i, j),
   i < j, with at least [c] witnesses. *)
let upper_pairs counted ~c =
  let n = Testkit.Counted_pairs.src_count counted in
  Pairs.of_rows_unchecked
    (Array.init n (fun i ->
         let zs, cs = Testkit.Counted_pairs.row counted i in
         let keep = ref [] in
         Array.iteri (fun idx j -> if j > i && cs.(idx) >= c then keep := j :: !keep) zs;
         Array.of_list (List.rev !keep)))

let family seed =
  (* random set family with duplication-friendly skew *)
  Gen.skewed_relation ~seed ~nx:30 ~ny:25 ~edges:250 ()

let check_algo name algo =
  List.iter
    (fun c ->
      List.iter
        (fun seed ->
          let r = family seed in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s c=%d seed=%d" name c seed)
            (brute ~c r)
            (Pairs.to_list (algo ~c r)))
        [ 81; 82; 83 ])
    [ 1; 2; 3; 5 ]

let test_sizeaware () = check_algo "sizeaware" (fun ~c r -> Size_aware.join ~c r)

let test_sizeaware_forced_boundaries () =
  let r = family 84 in
  List.iter
    (fun boundary ->
      List.iter
        (fun c ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "boundary=%d c=%d" boundary c)
            (brute ~c r)
            (Pairs.to_list (Size_aware.join ~boundary ~c r)))
        [ 1; 2; 4 ])
    [ 1; 2; 5; 100 ]

let test_sizeaware_pp_all_ablations () =
  let r = family 85 in
  List.iter
    (fun config ->
      List.iter
        (fun c ->
          let options = Size_aware_pp.ablation config in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "c=%d" c)
            (brute ~c r)
            (Pairs.to_list (Size_aware_pp.join ~options ~c r)))
        [ 1; 2; 3 ])
    [ `No_op; `Light; `Heavy; `Prefix ]

let test_sizeaware_pp_forced_boundaries () =
  let r = family 86 in
  List.iter
    (fun boundary ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "pp boundary=%d" boundary)
        (brute ~c:2 r)
        (Pairs.to_list (Size_aware_pp.join ~boundary ~c:2 r)))
    [ 1; 3; 8; 1000 ]

let test_mm_ssj () = check_algo "mmjoin" (fun ~c r -> Mm_ssj.join ~c r)

let test_overlap_tree_direct () =
  let r = family 87 in
  List.iter
    (fun c ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "overlap tree c=%d" c)
        (brute ~c r)
        (Pairs.to_list (Overlap_tree.similar_pairs ~c r)))
    [ 1; 2; 4 ]

let test_overlap_tree_members () =
  let r = Relation.of_sets [| [| 0; 1; 2 |]; [| 0; 1; 3 |]; [| 0; 1; 2; 3 |] |] in
  (* restrict to sets 0 and 1 only *)
  let p = Overlap_tree.similar_pairs ~members:[| 0; 1 |] ~c:2 r in
  Alcotest.(check (list (pair int int))) "members restricted" [ (0, 1) ] (Pairs.to_list p)

let prop_ssj_agreement =
  QCheck.Test.make ~name:"all SSJ algorithms agree" ~count:25
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, c) ->
      let r = Gen.random_relation ~seed:(seed + 2000) ~nx:15 ~ny:12 ~edges:80 () in
      let reference = Pairs.to_list (Mm_ssj.join ~c r) in
      Pairs.to_list (Size_aware.join ~c r) = reference
      && Pairs.to_list (Size_aware_pp.join ~c r) = reference)

module Two_path = Joinproj.Two_path
module Optimizer = Joinproj.Optimizer
module Guard = Jp_adaptive.Guard

let forced decision =
  { Optimizer.decision; est_out = 1; join_size = 1; est_seconds = 0.0 }

(* The SSJ entry against the thresholded counted self-join, over random
   and skewed families, c in {1, 2, 3}, domains {1, 3}, the optimizer's
   own plan or a forced Wcoj / Partitioned one, and a guard injecting a
   misestimation (which may re-plan or degrade). *)
let prop_ssj_entry =
  let gen =
    QCheck.Gen.(
      pair (pair small_nat bool)
        (quad (int_range 1 3) (oneofl [ 1; 3 ]) (int_range 0 3) bool))
  in
  let print ((seed, skewed), (c, domains, plan, guarded)) =
    Printf.sprintf "seed=%d skewed=%b c=%d domains=%d plan=%d guarded=%b" seed
      skewed c domains plan guarded
  in
  QCheck.Test.make ~name:"Two_path.ssj = upper_pairs of join_counted" ~count:120
    (QCheck.make ~print gen)
    (fun ((seed, skewed), (c, domains, plan, guarded)) ->
      let r =
        if skewed then Gen.skewed_relation ~seed:(seed + 300) ~nx:40 ~ny:30 ~edges:400 ()
        else Gen.random_relation ~seed:(seed + 300) ~nx:40 ~ny:20 ~edges:300 ()
      in
      let plan =
        match plan with
        | 0 -> None
        | 1 -> Some (forced Optimizer.Wcoj)
        | 2 -> Some (forced (Optimizer.Partitioned { d1 = 1; d2 = 1 }))
        | _ -> Some (forced (Optimizer.Partitioned { d1 = 4; d2 = 1 }))
      in
      let guard =
        if guarded then
          Some (Guard.with_inject (Testkit.Inject.uniform 0.01) Guard.default)
        else None
      in
      let expect = upper_pairs (Mm_ssj.join_counted r) ~c in
      Pairs.equal expect (Two_path.ssj ~domains ?plan ?guard ~c r))

(* One cache shared by the SSJ and the counted self-join, in both
   orders: the triangle product lives under its own key, so neither
   call is served the other's matrix. *)
let test_ssj_shared_cache () =
  let r = Gen.skewed_relation ~seed:17 ~nx:60 ~ny:20 ~edges:900 () in
  let ssj = Mm_ssj.join ~c:2 r and counted = Mm_ssj.join_counted r in
  let same_counted = Testkit.Counted_pairs.equal in
  let cache = Jp_cache.create () in
  Alcotest.(check bool) "ssj first" true (Pairs.equal ssj (Mm_ssj.join ~cache ~c:2 r));
  Alcotest.(check bool) "then counted" true
    (same_counted counted (Mm_ssj.join_counted ~cache r));
  let cache = Jp_cache.create () in
  Alcotest.(check bool) "counted first" true
    (same_counted counted (Mm_ssj.join_counted ~cache r));
  Alcotest.(check bool) "then ssj" true (Pairs.equal ssj (Mm_ssj.join ~cache ~c:2 r));
  Alcotest.(check bool) "ssj again (hit)" true
    (Pairs.equal ssj (Mm_ssj.join ~cache ~c:2 r));
  (* Planes saturate at c, so the product of one c is no answer for
     another: one cache serves c = 2, then c = 3, then c = 2 again,
     between counted self-joins, and every result is the uncached one. *)
  let ssj3 = Mm_ssj.join ~c:3 r in
  let cache = Jp_cache.create () in
  List.iter
    (fun (name, check) -> Alcotest.(check bool) name true (check ()))
    [
      ("c = 2", fun () -> Pairs.equal ssj (Mm_ssj.join ~cache ~c:2 r));
      ("counted", fun () -> same_counted counted (Mm_ssj.join_counted ~cache r));
      ("c = 3", fun () -> Pairs.equal ssj3 (Mm_ssj.join ~cache ~c:3 r));
      ("counted again", fun () -> same_counted counted (Mm_ssj.join_counted ~cache r));
      ("c = 2 again", fun () -> Pairs.equal ssj (Mm_ssj.join ~cache ~c:2 r));
      ("c = 3 again", fun () -> Pairs.equal ssj3 (Mm_ssj.join ~cache ~c:3 r));
    ]

(* The triangle product does about half the full product's word
   operations on a fixed dense family that the optimizer partitions. *)
let test_ssj_word_ops () =
  let r = Gen.skewed_relation ~seed:5 ~nx:400 ~ny:60 ~edges:12_000 () in
  let plan = forced (Optimizer.Partitioned { d1 = 2; d2 = 0 }) in
  let word_ops f =
    Jp_obs.reset ();
    Jp_obs.enable ();
    Fun.protect
      ~finally:(fun () -> Jp_obs.disable (); Jp_obs.reset ())
      (fun () ->
        ignore (f ());
        Jp_obs.value Jp_obs.C.mm_count_word_ops)
  in
  let full = word_ops (fun () -> Two_path.project_counts ~plan ~r ~s:r ()) in
  let upper = word_ops (fun () -> Two_path.ssj ~plan ~c:2 r) in
  Alcotest.(check bool)
    (Printf.sprintf "upper %d <= 0.55 x full %d" upper full)
    true
    (full > 0 && float_of_int upper <= 0.55 *. float_of_int full)

(* The SSJ's kernel work on a wide-inner family (several hundred heavy
   elements, so each triangle cell ANDs several words): the plane
   product the price picks writes fewer words than [count_upper] ANDs
   over the same operand, and the plane counter shows it ran. *)
let test_ssj_plane_word_ops () =
  let r = Gen.random_relation ~seed:12 ~nx:300 ~ny:400 ~edges:9000 () in
  let d1 = 2 in
  let plan = forced (Optimizer.Partitioned { d1; d2 = 0 }) in
  let counters f =
    Jp_obs.reset ();
    Jp_obs.enable ();
    Fun.protect
      ~finally:(fun () -> Jp_obs.disable (); Jp_obs.reset ())
      (fun () ->
        ignore (f ());
        Jp_obs.C.(List.map Jp_obs.value [ mm_count_word_ops; ssj_planes; ssj_triangles ]))
  in
  let p = Joinproj.Partition.make ~r ~s:r ~d1 ~d2:0 () in
  let v = Array.length p.heavy_y in
  let operand =
    Tile.Source.of_mapped ~rows:(Array.length p.heavy_x) ~cols:v
      (fun i -> Relation.adj_src r p.heavy_x.(i))
      p.y_index
  in
  let triangle =
    List.hd (counters (fun () -> Tile.count_upper (Tile.config ()) operand))
  in
  match counters (fun () -> Two_path.ssj ~plan ~c:2 r) with
  | [ planes; 1; 0 ] ->
    Alcotest.(check bool)
      (Printf.sprintf "v=%d: plane words %d in (0, triangle words %d)" v planes triangle)
      true
      (v > 62 && planes > 0 && planes < triangle)
  | got ->
    Alcotest.failf "expected one plane product, got counters %s"
      (String.concat "," (List.map string_of_int got))

(* Section 6's metamorphic sweep: the SSJ under every forced heavy
   threshold d1 (d2 = 0) from 1 past the largest element degree, c in
   1..6 and domains 1 and 3, equals the WCOJ expansion's counted
   self-join thresholded at c.  One family (many small sets) prices to
   planes and one (few large sets) to the triangle at d1 = 1; every run
   that multiplies uses the kernel [Cost.ssj_kernel] names, seen
   through the [ssj.*] counters.  Giving every edge twice changes
   nothing. *)
let test_ssj_sweep () =
  let module Partition = Joinproj.Partition in
  let module Cost = Jp_matrix.Cost in
  let thresholded r ~c =
    let counts = Jp_wcoj.Expand.project_counts ~r ~s:r () in
    Pairs.of_rows_unchecked
      (Array.init (Relation.src_count r) (fun x ->
           let zs, ks = Testkit.Counted_pairs.row counts x in
           let keep = ref [] in
           Array.iteri (fun i z -> if z > x && ks.(i) >= c then keep := z :: !keep) zs;
           Array.of_list (List.rev !keep)))
  in
  let kernel_ran f =
    Jp_obs.reset ();
    Jp_obs.enable ();
    Fun.protect
      ~finally:(fun () -> Jp_obs.disable (); Jp_obs.reset ())
      (fun () ->
        let out = f () in
        (out, Jp_obs.value Jp_obs.C.ssj_planes, Jp_obs.value Jp_obs.C.ssj_triangles))
  in
  let doubled r =
    let edges = ref [] in
    Relation.iter (fun x y -> edges := (x, y) :: !edges) r;
    let once = Array.of_list !edges in
    Relation.of_edges ~src_count:(Relation.src_count r)
      ~dst_count:(Relation.dst_count r)
      (Array.append once (Array.of_list (List.rev !edges)))
  in
  List.iter
    (fun (name, r, expect_at_1) ->
      let max_deg =
        List.fold_left max 0 (List.init (Relation.dst_count r) (Relation.deg_dst r))
      in
      let r2 = doubled r in
      let ran = ref [] in
      for c = 1 to 6 do
        let expect = thresholded r ~c in
        for d1 = 1 to max_deg + 1 do
          let plan = forced (Optimizer.Partitioned { d1; d2 = 0 }) in
          let p = Partition.make ~r ~s:r ~d1 ~d2:0 () in
          let u, v, _ = Partition.dims p in
          let nnz = Array.fold_left (fun n y -> n + Relation.deg_dst r y) 0 p.heavy_y in
          let priced = Cost.ssj_kernel (Cost.machine ()) ~c ~u ~v ~nnz in
          List.iter
            (fun domains ->
              let label = Printf.sprintf "%s d1=%d c=%d domains=%d" name d1 c domains in
              let got, planes, triangles =
                kernel_ran (fun () -> Two_path.ssj ~domains ~plan ~c r)
              in
              Alcotest.(check bool) (label ^ ": = thresholded counts") true
                (Pairs.equal expect got);
              Alcotest.(check bool) (label ^ ": edges twice") true
                (Pairs.equal got (Two_path.ssj ~domains ~plan ~c r2));
              let ran_kernel =
                match (planes, triangles) with
                | 0, 0 -> None
                | 1, 0 -> Some Cost.Planes
                | 0, 1 -> Some Cost.Triangle
                | _ -> Alcotest.failf "%s: %d plane and %d triangle products" label planes triangles
              in
              if v > 0 then
                Alcotest.(check bool) (label ^ ": the priced kernel ran") true
                  (ran_kernel = Some priced)
              else
                Alcotest.(check bool) (label ^ ": no product") true (ran_kernel = None);
              if d1 = 1 then ran := priced :: !ran)
            [ 1; 3 ]
        done
      done;
      Alcotest.(check bool) (name ^ ": priced to its kernel at d1 = 1") true
        (List.for_all (fun k -> k = expect_at_1) !ran))
    [
      ("many small sets", Gen.skewed_relation ~seed:41 ~nx:80 ~ny:20 ~edges:400 (), Cost.Planes);
      ("few large sets", Gen.random_relation ~seed:42 ~nx:16 ~ny:120 ~edges:1000 (), Cost.Triangle);
    ]

(* The SSJ's plan record reports the full counted self-join's size as
   its actual |OUT|, so it is the same record as join_counted's — same
   decision, est_out and actual_out — under the optimizer's own plan,
   a forced Wcoj one and a forced Partitioned one. *)
let test_ssj_plan_record () =
  let r = Gen.skewed_relation ~seed:9 ~nx:80 ~ny:30 ~edges:1200 () in
  let record f =
    Jp_obs.reset ();
    Jp_obs.enable ();
    Fun.protect
      ~finally:(fun () -> Jp_obs.disable (); Jp_obs.reset ())
      (fun () ->
        ignore (f ());
        match Jp_obs.plan_records () with
        | [ p ] -> (p.Jp_obs.decision, p.Jp_obs.est_out, p.Jp_obs.actual_out)
        | ps -> Alcotest.failf "%d plan records" (List.length ps))
  in
  List.iter
    (fun plan ->
      let d, e, a = record (fun () -> Two_path.project_counts ?plan ~r ~s:r ()) in
      let d', e', a' = record (fun () -> Two_path.ssj ?plan ~c:3 r) in
      Alcotest.(check string) "decision" d d';
      Alcotest.(check int) "est_out" e e';
      Alcotest.(check int) ("actual_out under " ^ d) a a')
    [
      None;
      Some (forced Optimizer.Wcoj);
      Some (forced (Optimizer.Partitioned { d1 = 3; d2 = 0 }));
    ]

let test_get_size_boundary_sane () =
  let r = family 88 in
  List.iter
    (fun c ->
      let b = Size_aware.get_size_boundary r ~c in
      Alcotest.(check bool) "boundary >= 1" true (b >= 1))
    [ 1; 2; 6 ]

let test_ordered_via_counts () =
  let r = family 89 in
  let c = 2 in
  let ordered = Ordered.via_counts ~c r in
  (* contents match brute force *)
  let got_pairs = List.sort compare (Array.to_list (Array.map (fun (i, j, _) -> (i, j)) ordered)) in
  Alcotest.(check (list (pair int int))) "ordered pairs" (brute ~c r) got_pairs;
  (* overlaps correct and non-increasing *)
  Array.iter
    (fun (i, j, k) ->
      Alcotest.(check int) "overlap value" (Jp_ssj.Common.overlap r i j) k)
    ordered;
  let ok = ref true in
  for i = 1 to Array.length ordered - 1 do
    let _, _, k1 = ordered.(i - 1) and _, _, k2 = ordered.(i) in
    if k1 < k2 then ok := false
  done;
  Alcotest.(check bool) "non-increasing" true !ok

let test_ordered_via_pairs_matches () =
  let r = family 90 in
  let c = 2 in
  let a = Ordered.via_counts ~c r in
  let b = Ordered.via_pairs r ~c (Size_aware.join ~c r) in
  Alcotest.(check bool) "same ordered output" true (a = b)

let test_top_k () =
  let r = family 91 in
  let c = 1 in
  let full = Ordered.via_counts ~c r in
  List.iter
    (fun k ->
      let got = Ordered.top_k ~k ~c r in
      let expect = Array.sub full 0 (min k (Array.length full)) in
      Alcotest.(check bool) (Printf.sprintf "top %d = prefix" k) true (got = expect))
    [ 0; 1; 5; 17; 100; 100_000 ]

let test_c_subsets () =
  let collected = ref [] in
  Jp_ssj.Common.iter_c_subsets [| 1; 2; 3; 4 |] ~c:2 (fun s -> collected := s :: !collected);
  Alcotest.(check int) "C(4,2)" 6 (List.length !collected);
  Alcotest.(check bool) "contains [1;4]" true (List.mem [ 1; 4 ] !collected);
  let none = ref 0 in
  Jp_ssj.Common.iter_c_subsets [| 1; 2 |] ~c:3 (fun _ -> incr none);
  Alcotest.(check int) "c > n yields none" 0 !none

let test_binom_capped () =
  Alcotest.(check int) "C(5,2)" 10 (Jp_ssj.Common.binom_capped 5 2 ~cap:1000);
  Alcotest.(check int) "capped" 50 (Jp_ssj.Common.binom_capped 100 50 ~cap:50);
  Alcotest.(check int) "k>n" 0 (Jp_ssj.Common.binom_capped 3 5 ~cap:10)

let suite =
  [
    Alcotest.test_case "sizeaware = brute" `Quick test_sizeaware;
    Alcotest.test_case "sizeaware boundaries" `Quick test_sizeaware_forced_boundaries;
    Alcotest.test_case "sizeaware++ ablations" `Quick test_sizeaware_pp_all_ablations;
    Alcotest.test_case "sizeaware++ boundaries" `Quick test_sizeaware_pp_forced_boundaries;
    Alcotest.test_case "mm ssj = brute" `Quick test_mm_ssj;
    Alcotest.test_case "overlap tree" `Quick test_overlap_tree_direct;
    Alcotest.test_case "overlap tree members" `Quick test_overlap_tree_members;
    QCheck_alcotest.to_alcotest prop_ssj_agreement;
    QCheck_alcotest.to_alcotest prop_ssj_entry;
    Alcotest.test_case "ssj shared cache" `Quick test_ssj_shared_cache;
    Alcotest.test_case "ssj triangle word ops" `Quick test_ssj_word_ops;
    Alcotest.test_case "ssj plane word ops" `Quick test_ssj_plane_word_ops;
    Alcotest.test_case "ssj sweep: d1 grid x c x domains" `Quick test_ssj_sweep;
    Alcotest.test_case "ssj plan record" `Quick test_ssj_plan_record;
    Alcotest.test_case "size boundary sane" `Quick test_get_size_boundary_sane;
    Alcotest.test_case "ordered via counts" `Quick test_ordered_via_counts;
    Alcotest.test_case "ordered via pairs" `Quick test_ordered_via_pairs_matches;
    Alcotest.test_case "top-k ordered" `Quick test_top_k;
    Alcotest.test_case "c-subsets" `Quick test_c_subsets;
    Alcotest.test_case "binom capped" `Quick test_binom_capped;
  ]
