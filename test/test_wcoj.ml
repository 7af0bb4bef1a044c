module Relation = Jp_relation.Relation
module Leapfrog = Jp_wcoj.Leapfrog
module Expand = Jp_wcoj.Expand
module Star = Jp_wcoj.Star
module Tuples = Testkit.Tuples

(* The common elements [Leapfrog.iter] reports, in report order. *)
let leapfrog arrays =
  let acc = ref [] in
  Leapfrog.iter arrays (fun x -> acc := x :: !acc);
  List.rev !acc

(* regression: k=1 used to loop forever (matches overshot k after emit) *)
let test_leapfrog_k1_terminates () =
  Alcotest.(check (list int)) "k=1 emits all" [ 1; 2; 9 ]
    (leapfrog [| [| 1; 2; 9 |] |])

let test_leapfrog_basic () =
  Alcotest.(check (list int)) "three-way" [ 3; 5 ]
    (leapfrog [| [| 1; 3; 5; 7 |]; [| 2; 3; 5; 8 |]; [| 0; 3; 5; 9 |] |]);
  Alcotest.(check (list int)) "single" [ 1; 2 ] (leapfrog [| [| 1; 2 |] |]);
  Alcotest.(check (list int)) "empty input" []
    (leapfrog [| [| 1; 2 |]; [||] |]);
  Alcotest.check_raises "no arrays"
    (Invalid_argument "Leapfrog.iter: no arrays") (fun () ->
      ignore (leapfrog [||]))

let prop_leapfrog =
  QCheck.Test.make ~name:"leapfrog = fold intersect" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 4) (small_list (int_bound 40)))
    (fun lists ->
      let arrays =
        List.map
          (fun l ->
            let a = Array.of_list (List.sort_uniq compare l) in
            a)
          lists
      in
      let expect =
        match arrays with
        | [] -> [||]
        | first :: rest -> List.fold_left Jp_util.Sorted.intersect first rest
      in
      leapfrog (Array.of_list arrays) = Array.to_list expect)

let test_expand_matches_brute () =
  let r = Gen.random_relation ~seed:11 ~nx:30 ~ny:20 ~edges:120 () in
  let s = Gen.random_relation ~seed:12 ~nx:25 ~ny:20 ~edges:100 () in
  let got = Gen.pairs_to_list (Expand.project ~r ~s ()) in
  Alcotest.(check (list (pair int int))) "project = brute force"
    (Gen.brute_two_path ~r ~s) got

let test_expand_parallel_equal () =
  let r = Gen.random_relation ~seed:13 ~nx:60 ~ny:40 ~edges:400 () in
  let s = Gen.random_relation ~seed:14 ~nx:50 ~ny:40 ~edges:350 () in
  let seq = Expand.project ~r ~s () in
  let par = Expand.project ~domains:4 ~r ~s () in
  Alcotest.(check bool) "parallel = sequential" true (Jp_relation.Pairs.equal seq par)

(* R and S for the expansion's small rows: x ids with 0, 1, 2 and 3 to
   6 distinct neighbours over a y domain wider than S's, and S lists
   over a few z ids, so that two lists often share ids. *)
let small_rows_case seed =
  let g = Jp_util.Rng.create seed in
  let nx = 1 + Jp_util.Rng.int g 30 and ny_s = 1 + Jp_util.Rng.int g 8 in
  let ny_r = ny_s + 1 + Jp_util.Rng.int g 4 and nz = 1 + Jp_util.Rng.int g 12 in
  let r_edges =
    List.concat
      (List.init nx (fun x ->
           let deg =
             match Jp_util.Rng.int g 4 with
             | 0 -> 0
             | 1 -> 1
             | 2 -> 2
             | _ -> min ny_r (3 + Jp_util.Rng.int g 4)
           in
           (* the first [deg] ids of a shuffled y domain *)
           let ys = Array.init ny_r Fun.id in
           Jp_util.Rng.shuffle g ys;
           List.init deg (fun i -> (x, ys.(i)))))
  in
  let s_edges =
    List.concat
      (List.init nz (fun z ->
           List.filter_map
             (fun y -> if Jp_util.Rng.int g 2 = 0 then Some (z, y) else None)
             (List.init ny_s Fun.id)))
  in
  ( Relation.of_edges ~src_count:nx ~dst_count:ny_r (Array.of_list r_edges),
    Relation.of_edges ~src_count:nz ~dst_count:ny_s (Array.of_list s_edges) )

(* Every row written directly (0, 1 or 2 lists) or through the
   accumulator (3 or more) is the union of its lists, and the counters
   are the sums the rows imply: probes = Σ list lengths, misses = Σ row
   lengths, hits = the rest. *)
let prop_expand_small_rows =
  QCheck.Test.make ~name:"expand small rows = set oracle, counters = lengths" ~count:200
    QCheck.small_nat
    (fun seed ->
      let r, s = small_rows_case seed in
      let list y = if y < Relation.dst_count s then Relation.adj_dst s y else [||] in
      let rows =
        List.init (Relation.src_count r) (fun x ->
            List.sort_uniq Int.compare
              (List.concat_map (fun y -> Array.to_list (list y)) (Array.to_list (Relation.adj_src r x))))
      in
      let oracle = List.concat (List.mapi (fun x zs -> List.map (fun z -> (x, z)) zs) rows) in
      let probes =
        Array.fold_left
          (fun n row -> Array.fold_left (fun n y -> n + Array.length (list y)) n row)
          0
          (Array.init (Relation.src_count r) (Relation.adj_src r))
      in
      let misses = List.length oracle in
      List.for_all
        (fun domains ->
          Jp_obs.reset ();
          Jp_obs.enable ();
          let got =
            Fun.protect ~finally:Jp_obs.disable (fun () -> Expand.project ~domains ~r ~s ())
          in
          let counters =
            List.map Jp_obs.value Jp_obs.C.[ light_probes; stamp_misses; stamp_hits ]
          in
          Jp_obs.reset ();
          Gen.pairs_to_list got = oracle && counters = [ probes; misses; probes - misses ])
        [ 1; 3 ])

let test_expand_counts () =
  let r = Relation.of_edges [| (0, 0); (0, 1); (0, 2) |] in
  let s = Relation.of_edges [| (9, 0); (9, 1); (8, 2) |] in
  let c = Expand.project_counts ~r ~s () in
  Alcotest.(check int) "witnesses (0,9)" 2 (Testkit.Counted_pairs.get c 0 9);
  Alcotest.(check int) "witnesses (0,8)" 1 (Testkit.Counted_pairs.get c 0 8)

let prop_expand_counts =
  QCheck.Test.make ~name:"expand counts = brute counts" ~count:60
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let r = Gen.random_relation ~seed:(s1 + 1) ~nx:12 ~ny:10 ~edges:40 () in
      let s = Gen.random_relation ~seed:(s2 + 100) ~nx:11 ~ny:10 ~edges:35 () in
      Gen.counted_to_list (Expand.project_counts ~r ~s ())
      = Gen.brute_two_path_counts ~r ~s)

let test_count_distinct () =
  let r = Gen.random_relation ~seed:15 ~nx:20 ~ny:15 ~edges:80 () in
  let s = Gen.random_relation ~seed:16 ~nx:18 ~ny:15 ~edges:70 () in
  Alcotest.(check int) "count_distinct = |project|"
    (Jp_relation.Pairs.count (Expand.project ~r ~s ()))
    (Expand.count_distinct ~r ~s ())

let brute_star rels =
  (* cross product per y, global dedup *)
  let k = Array.length rels in
  let acc = Hashtbl.create 97 in
  let ny = Array.fold_left (fun m r -> max m (Relation.dst_count r)) 0 rels in
  for y = 0 to ny - 1 do
    let lists =
      Array.map
        (fun r -> if y < Relation.dst_count r then Relation.adj_dst r y else [||])
        rels
    in
    if Array.for_all (fun l -> Array.length l > 0) lists then begin
      let rec fill i tuple =
        if i = k then Hashtbl.replace acc (List.rev tuple) ()
        else Array.iter (fun c -> fill (i + 1) (c :: tuple)) lists.(i)
      in
      fill 0 []
    end
  done;
  List.sort compare (Hashtbl.fold (fun t () l -> t :: l) acc [])

let test_star_project () =
  let rels =
    [|
      Gen.random_relation ~seed:21 ~nx:10 ~ny:8 ~edges:30 ();
      Gen.random_relation ~seed:22 ~nx:9 ~ny:8 ~edges:25 ();
      Gen.random_relation ~seed:23 ~nx:8 ~ny:8 ~edges:20 ();
    |]
  in
  let t = Star.project rels in
  Alcotest.(check (list (list int))) "star = brute" (brute_star rels) (Tuples.to_list t)

let test_star_k2_matches_expand () =
  let r = Gen.random_relation ~seed:24 ~nx:15 ~ny:12 ~edges:60 () in
  let s = Gen.random_relation ~seed:25 ~nx:14 ~ny:12 ~edges:55 () in
  let via_star = Tuples.to_list (Star.project [| r; s |]) in
  let via_expand =
    List.map (fun (x, z) -> [ x; z ]) (Gen.pairs_to_list (Expand.project ~r ~s ()))
  in
  Alcotest.(check (list (list int))) "k=2 agreement" via_expand via_star

let test_star_restrict () =
  let r = Relation.of_edges [| (0, 0); (1, 0) |] in
  let s = Relation.of_edges [| (5, 0); (6, 0) |] in
  let t = Star.project ~restrict:(0, fun c _ -> c = 1) [| r; s |] in
  Alcotest.(check (list (list int))) "restricted" [ [ 1; 5 ]; [ 1; 6 ] ]
    (Tuples.to_list t)

let test_star_join_size () =
  let r = Relation.of_edges [| (0, 0); (1, 0); (2, 1) |] in
  let s = Relation.of_edges [| (0, 0); (1, 1); (2, 1) |] in
  Alcotest.(check int) "join size" 4 (Star.join_size [| r; s |]);
  Alcotest.(check int) "matches relation helper"
    (Relation.join_size_on_dst [ r; s ])
    (Star.join_size [| r; s |])

let suite =
  [
    Alcotest.test_case "leapfrog k=1 regression" `Quick test_leapfrog_k1_terminates;
    Alcotest.test_case "leapfrog basic" `Quick test_leapfrog_basic;
    QCheck_alcotest.to_alcotest prop_leapfrog;
    Alcotest.test_case "expand = brute" `Quick test_expand_matches_brute;
    Alcotest.test_case "expand parallel" `Quick test_expand_parallel_equal;
    QCheck_alcotest.to_alcotest prop_expand_small_rows;
    Alcotest.test_case "expand counts" `Quick test_expand_counts;
    QCheck_alcotest.to_alcotest prop_expand_counts;
    Alcotest.test_case "count_distinct" `Quick test_count_distinct;
    Alcotest.test_case "star project" `Quick test_star_project;
    Alcotest.test_case "star k=2" `Quick test_star_k2_matches_expand;
    Alcotest.test_case "star restrict" `Quick test_star_restrict;
    Alcotest.test_case "star join size" `Quick test_star_join_size;
  ]
