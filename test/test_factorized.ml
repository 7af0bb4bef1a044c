module Relation = Jp_relation.Relation
module Pairs = Testkit.Pairs
module Factorized = Joinproj.Factorized

let forced d1 d2 = Factorized.build ~thresholds:(d1, d2)

let check_semantics ~r ~s thresholds =
  let expect = Jp_wcoj.Expand.project ~r ~s () in
  let f =
    match thresholds with
    | Some (d1, d2) -> forced d1 d2 ~r ~s ()
    | None -> Factorized.build ~r ~s ()
  in
  (* decompression equals the explicit result *)
  Alcotest.(check bool) "to_pairs" true (Pairs.equal expect (Factorized.to_pairs f));
  Alcotest.(check int) "count" (Pairs.count expect) (Factorized.count f);
  (* membership agrees on positives and a grid of negatives *)
  Pairs.iter
    (fun x z ->
      if not (Factorized.mem f x z) then Alcotest.failf "missing (%d,%d)" x z)
    expect;
  for x = 0 to Relation.src_count r - 1 do
    for z = 0 to Relation.src_count s - 1 do
      if Factorized.mem f x z <> Pairs.mem expect x z then
        Alcotest.failf "membership mismatch (%d,%d)" x z
    done
  done;
  (* the expansion holds each pair exactly once *)
  Alcotest.(check int) "count" (Pairs.count expect) (Factorized.count f);
  Alcotest.(check bool) "to_pairs" true (Pairs.equal expect (Factorized.to_pairs f))

let test_semantics_thresholds () =
  let r = Gen.skewed_relation ~seed:301 ~nx:25 ~ny:20 ~edges:160 () in
  let s = Gen.skewed_relation ~seed:302 ~nx:22 ~ny:20 ~edges:140 () in
  List.iter
    (fun t -> check_semantics ~r ~s (Some t))
    [ (1, 1); (2, 2); (3, 1); (1, 3); (100, 100) ];
  check_semantics ~r ~s None

let test_compression_on_block_structure () =
  (* "research group" structure: every member of group c shares exactly
     the features of c, so every witness of the group has the same
     X x Z block and content dedup collapses the group to ONE biclique *)
  let groups = 5 and members = 40 and features = 40 in
  let sets =
    Array.init (groups * members) (fun i ->
        let c = i / members in
        Array.init features (fun e -> (c * features) + e))
  in
  let r = Jp_relation.Relation.of_sets sets in
  let f = Factorized.build ~thresholds:(2, 2) ~r ~s:r () in
  let explicit = Factorized.count f in
  Alcotest.(check int) "one biclique per group" groups (Factorized.bicliques f);
  Alcotest.(check int) "output is block diagonal" (groups * members * members) explicit;
  Alcotest.(check bool)
    (Printf.sprintf "compressed (%d ints vs %d pairs)" (Factorized.stored_ints f) explicit)
    true
    (Factorized.stored_ints f * 10 < explicit);
  (* graceful degradation: distinct neighbourhoods (no self-loops) cannot
     dedup, but storage stays bounded by ~2N + light *)
  let noisy =
    Jp_workload.Generate.community_graph ~seed:6 ~communities:5 ~members:40
      ~p_intra:0.9 ()
  in
  let fn = Factorized.build ~thresholds:(2, 2) ~r:noisy ~s:noisy () in
  Alcotest.(check bool) "bounded by ~2N + light" true
    (Factorized.stored_ints fn <= (2 * Relation.size noisy) + Factorized.count fn)

let test_of_pairs_roundtrip () =
  let p = Pairs.of_rows [| [| 1; 5 |]; [||]; [| 0 |] |] in
  let f = Factorized.of_pairs p in
  Alcotest.(check bool) "roundtrip" true (Pairs.equal p (Factorized.to_pairs f));
  Alcotest.(check int) "no bicliques" 0 (Factorized.bicliques f);
  Alcotest.(check int) "stored = pairs" 3 (Factorized.stored_ints f);
  Alcotest.(check bool) "mem" true (Factorized.mem f 0 5);
  Alcotest.(check bool) "not mem" false (Factorized.mem f 1 5)

let suite =
  [
    Alcotest.test_case "semantics across thresholds" `Quick test_semantics_thresholds;
    Alcotest.test_case "compression on block structure" `Quick
      test_compression_on_block_structure;
    Alcotest.test_case "of_pairs roundtrip" `Quick test_of_pairs_roundtrip;
  ]
