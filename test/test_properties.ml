(* Cross-cutting property tests: deeper randomized checks on invariants
   that the per-module suites only probe with fixed cases. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Sorted = Jp_util.Sorted

let sorted_of_list l = Array.of_list (List.sort_uniq compare l)

let prop_intersect_many =
  QCheck.Test.make ~name:"intersect_many = folded pairwise intersection" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 5) (small_list (int_bound 30)))
    (fun lists ->
      let arrays = List.map sorted_of_list lists in
      let expect =
        match arrays with
        | [] -> [||]
        | first :: rest -> List.fold_left Sorted.intersect first rest
      in
      Sorted.intersect_many arrays = expect)

let prop_merge_union_many =
  QCheck.Test.make ~name:"merge_union_many = set union" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 5) (small_list (int_bound 30)))
    (fun lists ->
      let arrays = List.map sorted_of_list lists in
      let expect = sorted_of_list (List.concat lists) in
      Sorted.merge_union_many arrays = expect)

let prop_pairs_union =
  QCheck.Test.make ~name:"Pairs.union = set union of pair lists" ~count:200
    QCheck.(
      pair
        (small_list (pair (int_bound 8) (int_bound 8)))
        (small_list (pair (int_bound 8) (int_bound 8))))
    (fun (la, lb) ->
      let to_pairs l =
        let rows = Array.make 9 [] in
        List.iter (fun (x, z) -> rows.(x) <- z :: rows.(x)) l;
        Pairs.of_rows_unchecked
          (Array.map (fun zs -> sorted_of_list zs) rows)
      in
      let u = Pairs.union (to_pairs la) (to_pairs lb) in
      Pairs.to_list u = List.sort_uniq compare (la @ lb))

let prop_relation_semijoin =
  QCheck.Test.make ~name:"semijoin_dst = filter on y" ~count:150
    QCheck.(pair (small_list (pair (int_bound 10) (int_bound 10))) (int_bound 10))
    (fun (edges, pivot) ->
      let r = Relation.of_edges ~src_count:11 ~dst_count:11 (Array.of_list edges) in
      let keep y = y <= pivot in
      let filtered = Relation.semijoin_dst r keep in
      let expect =
        List.sort_uniq compare (List.filter (fun (_, y) -> keep y) edges)
      in
      Array.to_list (Relation.to_edges filtered) = expect)

let prop_relation_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:150
    QCheck.(small_list (pair (int_bound 10) (int_bound 10)))
    (fun edges ->
      let r = Relation.of_edges ~src_count:11 ~dst_count:11 (Array.of_list edges) in
      Relation.equal r (Relation.transpose (Relation.transpose r)))

let prop_join_size_consistent =
  QCheck.Test.make ~name:"join_size_on_dst = |full join|" ~count:100
    QCheck.(
      pair
        (small_list (pair (int_bound 8) (int_bound 6)))
        (small_list (pair (int_bound 8) (int_bound 6))))
    (fun (le, ls) ->
      let r = Relation.of_edges ~src_count:9 ~dst_count:7 (Array.of_list le) in
      let s = Relation.of_edges ~src_count:9 ~dst_count:7 (Array.of_list ls) in
      let brute = ref 0 in
      Relation.iter
        (fun _ y -> brute := !brute + Relation.deg_dst s y)
        r;
      Relation.join_size_on_dst [ r; s ] = !brute)

let prop_mmjoin_counts_sum =
  QCheck.Test.make
    ~name:"counted project: total witnesses = full join size" ~count:80
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, d1) ->
      let r = Gen.random_relation ~seed:(seed + 6000) ~nx:12 ~ny:10 ~edges:50 () in
      let s = Gen.random_relation ~seed:(seed + 6500) ~nx:11 ~ny:10 ~edges:45 () in
      let plan =
        {
          Joinproj.Optimizer.decision = Joinproj.Optimizer.Partitioned { d1; d2 = 1 };
          est_out = 1;
          join_size = 1;
          est_seconds = 0.0;
        }
      in
      let counted = Joinproj.Two_path.project_counts ~plan ~r ~s () in
      Jp_relation.Counted_pairs.total_witnesses counted
      = Relation.join_size_on_dst [ r; s ])

let prop_boolean_vs_counted_support =
  QCheck.Test.make ~name:"boolean project = support of counted project" ~count:80
    QCheck.(triple small_int (int_range 1 4) (int_range 1 4))
    (fun (seed, d1, d2) ->
      let r = Gen.random_relation ~seed:(seed + 7000) ~nx:12 ~ny:10 ~edges:50 () in
      let s = Gen.random_relation ~seed:(seed + 7500) ~nx:11 ~ny:10 ~edges:45 () in
      let plan =
        {
          Joinproj.Optimizer.decision = Joinproj.Optimizer.Partitioned { d1; d2 };
          est_out = 1;
          join_size = 1;
          est_seconds = 0.0;
        }
      in
      let boolean = Joinproj.Two_path.project ~plan ~r ~s () in
      let counted = Joinproj.Two_path.project_counts ~plan ~r ~s () in
      Pairs.equal boolean (Jp_relation.Counted_pairs.to_pairs counted))

let prop_factorized_random =
  QCheck.Test.make ~name:"factorized view = explicit pairs" ~count:60
    QCheck.(triple small_int (int_range 1 4) (int_range 1 4))
    (fun (seed, d1, d2) ->
      let r = Gen.skewed_relation ~seed:(seed + 8000) ~nx:14 ~ny:12 ~edges:70 () in
      let s = Gen.skewed_relation ~seed:(seed + 8500) ~nx:13 ~ny:12 ~edges:65 () in
      let f = Joinproj.Factorized.build ~thresholds:(d1, d2) ~r ~s () in
      Pairs.equal (Jp_wcoj.Expand.project ~r ~s ()) (Joinproj.Factorized.to_pairs f))

let prop_scj_subset_of_ssj =
  QCheck.Test.make ~name:"SCJ pairs always have overlap = |contained set|" ~count:60
    QCheck.small_int
    (fun seed ->
      let r = Gen.random_relation ~seed:(seed + 9000) ~nx:12 ~ny:8 ~edges:40 () in
      let scj = Jp_scj.Mm_scj.join r in
      let ok = ref true in
      Pairs.iter
        (fun a b ->
          if Jp_ssj.Common.overlap r a b <> Relation.deg_src r a then ok := false)
        scj;
      !ok)

let prop_star_monotone_in_thresholds =
  QCheck.Test.make ~name:"star output independent of thresholds" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (d1, d2) ->
      let rels =
        [|
          Gen.random_relation ~seed:123 ~nx:8 ~ny:8 ~edges:24 ();
          Gen.random_relation ~seed:124 ~nx:8 ~ny:8 ~edges:24 ();
          Gen.random_relation ~seed:125 ~nx:8 ~ny:8 ~edges:24 ();
        |]
      in
      let reference = Joinproj.Star.project ~thresholds:(1, 1) rels in
      Jp_relation.Tuples.equal reference
        (Joinproj.Star.project ~thresholds:(d1, d2) rels))

let prop_bsi_units_bounded =
  QCheck.Test.make ~name:"BSI simulation accounting invariants" ~count:20
    QCheck.(int_range 1 40)
    (fun batch_size ->
      let r = Gen.random_relation ~seed:321 ~nx:15 ~ny:12 ~edges:60 () in
      let queries = Jp_workload.Generate.batch_queries ~seed:5 ~count:80 ~nx:15 ~nz:15 () in
      let stats =
        Jp_bsi.Bsi.simulate ~r ~s:r ~queries ~rate:10_000.0 ~batch_size ()
      in
      stats.Jp_bsi.Bsi.batches = (80 + batch_size - 1) / batch_size
      && stats.Jp_bsi.Bsi.avg_delay >= 0.0
      && stats.Jp_bsi.Bsi.max_delay >= stats.Jp_bsi.Bsi.avg_delay
      && stats.Jp_bsi.Bsi.units_needed >= 0.0)

let prop_theoretical_thresholds_bounded =
  QCheck.Test.make ~name:"theoretical thresholds stay within [1, N]" ~count:200
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 1_000_000_000))
    (fun (n, out) ->
      let d1, d2 = Joinproj.Optimizer.theoretical_thresholds ~n ~out in
      1 <= d1 && d1 <= n && 1 <= d2 && d2 <= n)

let prop_theoretical_d2_antitone =
  (* Both |OUT| regimes give a d2 that decreases in |OUT| (Case 1:
     N/|OUT|^2/3, Case 2: (2N^2/(N+|OUT|))^1/3, continuous at the
     boundary); integer rounding can perturb by at most one. *)
  QCheck.Test.make ~name:"theoretical d2 antitone in |OUT|" ~count:200
    QCheck.(
      triple (int_range 1 100_000) (int_range 1 10_000_000)
        (int_range 1 10_000_000))
    (fun (n, o1, o2) ->
      let lo = min o1 o2 and hi = max o1 o2 in
      let _, d2_lo = Joinproj.Optimizer.theoretical_thresholds ~n ~out:lo in
      let _, d2_hi = Joinproj.Optimizer.theoretical_thresholds ~n ~out:hi in
      d2_hi <= d2_lo + 1)

let prop_plan_deterministic =
  QCheck.Test.make
    ~name:"plan deterministic, cost non-negative, prepared path agrees"
    ~count:40 QCheck.small_int
    (fun seed ->
      let module Optimizer = Joinproj.Optimizer in
      let r = Gen.random_relation ~seed:(seed + 12_000) ~nx:20 ~ny:15 ~edges:120 () in
      let s = Gen.skewed_relation ~seed:(seed + 12_500) ~nx:18 ~ny:15 ~edges:110 () in
      let p1 = Optimizer.plan ~r ~s () in
      let p2 = Optimizer.plan ~r ~s () in
      let prep = Optimizer.prepare ~r ~s in
      let p3 = Optimizer.plan_prepared prep () in
      let c1 = Optimizer.estimate_cost ~r ~s p1.Optimizer.decision in
      let c2 = Optimizer.estimate_cost_prepared prep p1.Optimizer.decision in
      p1 = p2 && p1 = p3
      && p1.Optimizer.est_seconds >= 0.0
      && c1 >= 0.0 && c1 = c2
      && Optimizer.plan_counts ~r ~s () = Optimizer.plan_counts_prepared prep ())

let prop_guard_replan_checksum =
  (* Whatever the injected misestimation makes the guard do mid-query
     (re-plan Wcoj <-> Partitioned, degrade under a zero budget), the
     produced pairs must equal the plain expansion's — with no guard, the
     inert one or the default, with or without a live cancel token, on
     one or two domains. *)
  let guards =
    let module Guard = Jp_adaptive.Guard in
    [ ("none", None); ("inert", Some Guard.inert); ("default", Some Guard.default) ]
  in
  QCheck.Test.make ~name:"guard re-planning never changes the result" ~count:40
    QCheck.(
      quad small_int (oneofl [ 0.01; 1.0; 100.0 ])
        (make ~print:fst (Gen.oneofl guards))
        (pair bool (int_range 1 2)))
    (fun (seed, factor, (_, guard), (with_token, domains)) ->
      let module Guard = Jp_adaptive.Guard in
      let r = Gen.skewed_relation ~seed:(seed + 13_000) ~nx:40 ~ny:20 ~edges:300 () in
      let s = Gen.skewed_relation ~seed:(seed + 13_500) ~nx:35 ~ny:20 ~edges:280 () in
      let reference = Jp_wcoj.Expand.project ~r ~s () in
      let counts_reference =
        Gen.counted_to_list (Jp_wcoj.Expand.project_counts ~r ~s ())
      in
      let cancel = if with_token then Some (Jp_util.Cancel.create ()) else None in
      let project guard = Joinproj.Two_path.project ~domains ?guard ?cancel ~r ~s () in
      let injected =
        Guard.with_inject (Jp_adaptive.Inject.out_only factor) Guard.default
      in
      let budgeted = Guard.with_budget_ms 0.0 Guard.default in
      Pairs.equal reference (project guard)
      && Gen.counted_to_list
           (Joinproj.Two_path.project_counts ~domains ?guard ?cancel ~r ~s ())
         = counts_reference
      && Pairs.equal reference (project (Some injected))
      && Pairs.equal reference (project (Some budgeted)))

let prop_rows_pass_checked_constructors =
  (* Engines build their results with the unchecked constructors, trusting
     the row accumulator to emit strictly increasing rows; the checked
     ones must accept every row, over a narrow z domain (rows leave by the
     bit scan) and a wide one (rows leave by a sort). *)
  QCheck.Test.make ~name:"engine rows pass the checked constructors" ~count:40
    QCheck.(
      quad small_int (pair (int_range 1 4) (int_range 1 4)) (oneofl [ 30; 20_000 ])
        (triple (int_range 1 2) bool bool))
    (fun (seed, (d1, d2), nz, (domains, tiled, memoized)) ->
      let module Counted_pairs = Jp_relation.Counted_pairs in
      let module Two_path = Joinproj.Two_path in
      let r = Gen.skewed_relation ~seed:(seed + 14_000) ~nx:40 ~ny:20 ~edges:300 () in
      let s = Gen.random_relation ~seed:(seed + 14_500) ~nx:nz ~ny:20 ~edges:700 () in
      let plan =
        {
          Joinproj.Optimizer.decision = Joinproj.Optimizer.Partitioned { d1; d2 };
          est_out = 1;
          join_size = 1;
          est_seconds = 0.0;
        }
      in
      (* The heavy product runs at the default fitted shape or through
         tiny capped tiles under a budget, and with a memo the cache is
         first warmed by the other config: a product memoized under one
         tile config must serve the other. *)
      let tiny = Some (Jp_tile.config ~tile_bits:4 ~budget_bytes:4096 ()) in
      let tile = if tiled then tiny else None in
      let memo =
        if not memoized then None
        else begin
          let cache = Jp_cache.create () in
          let memo = Jp_cache.two_path_memo cache ~r ~s in
          let warm = if tiled then None else tiny in
          ignore (Two_path.project ~domains ~plan ~memo ?tile:warm ~r ~s ());
          ignore (Two_path.project_counts ~domains ~plan ~memo ?tile:warm ~r ~s ());
          Some memo
        end
      in
      let checked p = Pairs.of_rows (Array.init (Pairs.src_count p) (Pairs.row p)) in
      let checked_counts c =
        Counted_pairs.of_rows (Array.init (Counted_pairs.src_count c) (Counted_pairs.row c))
      in
      let reference = checked (Jp_wcoj.Expand.project ~domains ~r ~s ()) in
      let reference_counts = checked_counts (Jp_wcoj.Expand.project_counts ~domains ~r ~s ()) in
      Counted_pairs.equal reference_counts
        (checked_counts (Two_path.project_counts ~domains ~plan ?memo ?tile ~r ~s ()))
      && List.for_all (Pairs.equal reference)
           [
             checked (Two_path.project ~domains ~plan ?memo ?tile ~r ~s ());
             checked
               (Two_path.project ~domains ~strategy:Two_path.Combinatorial ~plan ?memo ?tile
                  ~r ~s ());
             Counted_pairs.to_pairs reference_counts;
             checked
               (Joinproj.Factorized.to_pairs
                  (Joinproj.Factorized.build ~thresholds:(d1, d2) ~r ~s ()));
           ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_intersect_many;
    QCheck_alcotest.to_alcotest prop_merge_union_many;
    QCheck_alcotest.to_alcotest prop_pairs_union;
    QCheck_alcotest.to_alcotest prop_relation_semijoin;
    QCheck_alcotest.to_alcotest prop_relation_transpose_involution;
    QCheck_alcotest.to_alcotest prop_join_size_consistent;
    QCheck_alcotest.to_alcotest prop_mmjoin_counts_sum;
    QCheck_alcotest.to_alcotest prop_boolean_vs_counted_support;
    QCheck_alcotest.to_alcotest prop_factorized_random;
    QCheck_alcotest.to_alcotest prop_scj_subset_of_ssj;
    QCheck_alcotest.to_alcotest prop_star_monotone_in_thresholds;
    QCheck_alcotest.to_alcotest prop_bsi_units_bounded;
    QCheck_alcotest.to_alcotest prop_theoretical_thresholds_bounded;
    QCheck_alcotest.to_alcotest prop_theoretical_d2_antitone;
    QCheck_alcotest.to_alcotest prop_plan_deterministic;
    QCheck_alcotest.to_alcotest prop_guard_replan_checksum;
    QCheck_alcotest.to_alcotest prop_rows_pass_checked_constructors;
  ]
