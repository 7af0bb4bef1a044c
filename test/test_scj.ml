module Relation = Jp_relation.Relation
module Pairs = Testkit.Pairs
module Pretti = Jp_scj.Pretti
module Limit_plus = Jp_scj.Limit_plus
module Piejoin = Jp_scj.Piejoin
module Mm_scj = Jp_scj.Mm_scj

let brute r =
  let n = Relation.src_count r in
  let acc = ref [] in
  for a = n - 1 downto 0 do
    if Relation.deg_src r a > 0 then
      for b = n - 1 downto 0 do
        if
          b <> a
          && Jp_util.Sorted.subset (Relation.adj_src r a) (Relation.adj_src r b)
        then acc := (a, b) :: !acc
      done
  done;
  !acc

(* Containment-rich family: nested prefixes plus random sets. *)
let nested_family seed =
  let g = Jp_util.Rng.create seed in
  let sets =
    Array.init 25 (fun i ->
        if i < 10 then Array.init ((i mod 5) + 1) (fun e -> e)
        else
          Array.of_list
            (List.sort_uniq compare
               (List.init (1 + Jp_util.Rng.int g 6) (fun _ -> Jp_util.Rng.int g 12))))
  in
  Relation.of_sets ~dst_count:12 sets

let algos =
  [
    ("pretti", fun r -> Pretti.join r);
    ("limit+ (limit=2)", fun r -> Limit_plus.join ~limit:2 r);
    ("limit+ (limit=1)", fun r -> Limit_plus.join ~limit:1 r);
    ("limit+ (limit=4)", fun r -> Limit_plus.join ~limit:4 r);
    ("piejoin", fun r -> Piejoin.join r);
    ("mm scj", fun r -> Mm_scj.join r);
  ]

let test_all_algos_nested () =
  List.iter
    (fun seed ->
      let r = nested_family seed in
      let expect = brute r in
      List.iter
        (fun (name, algo) ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s seed=%d" name seed)
            expect
            (Pairs.to_list (algo r)))
        algos)
    [ 91; 92; 93 ]

let test_all_algos_random () =
  List.iter
    (fun seed ->
      let r = Gen.random_relation ~seed ~nx:20 ~ny:10 ~edges:70 () in
      let expect = brute r in
      List.iter
        (fun (name, algo) ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s seed=%d" name seed)
            expect
            (Pairs.to_list (algo r)))
        algos)
    [ 94; 95 ]

let test_equal_sets_both_directions () =
  let r = Relation.of_sets [| [| 1; 2 |]; [| 1; 2 |]; [| 1 |] |] in
  let got = Pairs.to_list (Pretti.join r) in
  Alcotest.(check (list (pair int int)))
    "duplicates contained both ways"
    [ (0, 1); (1, 0); (2, 0); (2, 1) ]
    got

let test_piejoin_parallel () =
  let r = nested_family 96 in
  let seq = Piejoin.join r in
  let par = Piejoin.join ~domains:4 r in
  Alcotest.(check bool) "parallel = sequential" true (Pairs.equal seq par)

let test_mm_scj_parallel () =
  let r = nested_family 97 in
  let seq = Mm_scj.join r in
  let par = Mm_scj.join ~domains:4 r in
  Alcotest.(check bool) "parallel = sequential" true (Pairs.equal seq par)

let prop_scj_agreement =
  QCheck.Test.make ~name:"SCJ algorithms agree on random families" ~count:25
    QCheck.small_int
    (fun seed ->
      let r = Gen.random_relation ~seed:(seed + 3000) ~nx:12 ~ny:8 ~edges:45 () in
      let reference = Pairs.to_list (Mm_scj.join r) in
      List.for_all (fun (_, algo) -> Pairs.to_list (algo r) = reference) algos)

let test_limit_guard () =
  let r = nested_family 98 in
  Alcotest.check_raises "limit >= 1"
    (Invalid_argument "Limit_plus.join: limit must be >= 1") (fun () ->
      ignore (Limit_plus.join ~limit:0 r))

let suite =
  [
    Alcotest.test_case "all algos nested" `Quick test_all_algos_nested;
    Alcotest.test_case "all algos random" `Quick test_all_algos_random;
    Alcotest.test_case "equal sets" `Quick test_equal_sets_both_directions;
    Alcotest.test_case "piejoin parallel" `Quick test_piejoin_parallel;
    Alcotest.test_case "mm scj parallel" `Quick test_mm_scj_parallel;
    QCheck_alcotest.to_alcotest prop_scj_agreement;
    Alcotest.test_case "limit guard" `Quick test_limit_guard;
  ]
