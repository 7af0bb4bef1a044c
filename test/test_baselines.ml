module Relation = Jp_relation.Relation
module Pairs = Testkit.Pairs
module Hash_join = Jp_baselines.Hash_join
module Sortmerge_join = Jp_baselines.Sortmerge_join
module Bitset_engine = Jp_baselines.Bitset_engine
module Fulljoin = Jp_baselines.Fulljoin

let engines =
  [
    ("hash join", fun ~r ~s -> Hash_join.two_path ~r ~s);
    ("sort-merge join", fun ~r ~s -> Sortmerge_join.two_path ~r ~s);
    ("bitset engine", fun ~r ~s -> Bitset_engine.two_path ~r ~s ());
    ("bitset engine (all dense)", fun ~r ~s -> Bitset_engine.two_path ~dense_threshold:0 ~r ~s ());
    ("bitset engine (all sparse)", fun ~r ~s ->
      Bitset_engine.two_path ~dense_threshold:max_int ~r ~s ());
    ("full join", fun ~r ~s -> Fulljoin.two_path ~r ~s ());
  ]

let check_engines ~r ~s label =
  let expect = Gen.brute_two_path ~r ~s in
  List.iter
    (fun (name, engine) ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s (%s)" name label)
        expect
        (Pairs.to_list (engine ~r ~s)))
    engines

let test_engines_uniform () =
  let r = Gen.random_relation ~seed:111 ~nx:25 ~ny:20 ~edges:130 () in
  let s = Gen.random_relation ~seed:112 ~nx:23 ~ny:20 ~edges:120 () in
  check_engines ~r ~s "uniform"

let test_engines_skewed () =
  let r = Gen.skewed_relation ~seed:113 ~nx:30 ~ny:25 ~edges:220 () in
  let s = Gen.skewed_relation ~seed:114 ~nx:28 ~ny:25 ~edges:200 () in
  check_engines ~r ~s "skewed"

let test_engines_empty_sides () =
  let r = Relation.of_edges ~src_count:5 ~dst_count:5 [||] in
  let s = Gen.random_relation ~seed:115 ~nx:5 ~ny:5 ~edges:10 () in
  check_engines ~r ~s "empty r";
  check_engines ~r:s ~s:r "empty s"

let test_fulljoin_star_matches () =
  let rels =
    [|
      Gen.random_relation ~seed:116 ~nx:8 ~ny:8 ~edges:25 ();
      Gen.random_relation ~seed:117 ~nx:8 ~ny:8 ~edges:25 ();
      Gen.random_relation ~seed:118 ~nx:8 ~ny:8 ~edges:25 ();
    |]
  in
  Alcotest.(check (list (list int)))
    "baseline star = mmjoin star"
    (Testkit.Tuples.to_list (Fulljoin.star rels))
    (Testkit.Tuples.to_list (Joinproj.Star.project ~thresholds:(2, 2) rels))

let suite =
  [
    Alcotest.test_case "engines uniform" `Quick test_engines_uniform;
    Alcotest.test_case "engines skewed" `Quick test_engines_skewed;
    Alcotest.test_case "engines empty" `Quick test_engines_empty_sides;
    Alcotest.test_case "baseline star" `Quick test_fulljoin_star_matches;
  ]
