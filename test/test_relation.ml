module Relation = Testkit.Relation
module Stats = Jp_relation.Stats
module Pairs = Testkit.Pairs
module Counted_pairs = Testkit.Counted_pairs
module Tuples = Testkit.Tuples

let test_build_dedup () =
  let r = Relation.of_edges [| (0, 1); (0, 1); (2, 0); (0, 2); (2, 0) |] in
  Alcotest.(check int) "size dedups" 3 (Relation.size r);
  Alcotest.(check (list int)) "adj_src sorted" [ 1; 2 ]
    (Array.to_list (Relation.adj_src r 0));
  Alcotest.(check (list int)) "adj_dst sorted" [ 2 ]
    (Array.to_list (Relation.adj_dst r 0));
  Alcotest.(check int) "deg_dst" 1 (Relation.deg_dst r 1);
  Alcotest.(check bool) "mem" true (Relation.mem r 2 0);
  Alcotest.(check bool) "not mem" false (Relation.mem r 1 0)

let test_of_sets_roundtrip () =
  let sets = [| [| 3; 1; 3 |]; [||]; [| 0 |] |] in
  let r = Relation.of_sets sets in
  Alcotest.(check int) "size" 3 (Relation.size r);
  Alcotest.(check (list int)) "set 0" [ 1; 3 ] (Array.to_list (Relation.adj_src r 0));
  Alcotest.(check int) "empty set" 0 (Relation.deg_src r 1)

let test_transpose () =
  let r = Relation.of_edges [| (0, 5); (1, 5); (1, 2) |] in
  let t = Relation.transpose r in
  Alcotest.(check int) "src<->dst" (Relation.src_count r) (Relation.dst_count t);
  Alcotest.(check (list int)) "adj swapped" [ 0; 1 ] (Array.to_list (Relation.adj_src t 5));
  Alcotest.(check bool) "double transpose" true (Relation.equal r (Relation.transpose t))

let test_filters () =
  let r = Relation.of_edges [| (0, 0); (0, 1); (1, 0); (1, 1); (2, 2) |] in
  let rs = Relation.restrict_src r (fun x -> x = 1) in
  Alcotest.(check int) "restrict_src" 2 (Relation.size rs);
  Alcotest.(check (list int)) "restrict_src adj" [ 0; 1 ]
    (Array.to_list (Relation.adj_src rs 1));
  Alcotest.(check int) "restrict_src drops other x" 0 (Relation.deg_src rs 0)

let test_join_size_active () =
  let r = Relation.of_edges [| (0, 0); (1, 0); (2, 1) |] in
  let s = Relation.of_edges [| (0, 0); (1, 1); (2, 1) |] in
  (* y=0: 2*1, y=1: 1*2 *)
  Alcotest.(check int) "join size" 4 (Relation.join_size_on_dst [ r; s ])

let test_of_flat_errors () =
  Alcotest.check_raises "odd" (Invalid_argument "Relation.of_flat: odd length")
    (fun () -> ignore (Relation.of_flat [| 1 |]));
  Alcotest.check_raises "negative" (Invalid_argument "Relation.of_flat: negative id")
    (fun () -> ignore (Relation.of_flat [| 0; -1 |]))

let prop_roundtrip =
  QCheck.Test.make ~name:"of_edges/to_edges roundtrip (sorted dedup)" ~count:200
    QCheck.(small_list (pair (int_bound 20) (int_bound 20)))
    (fun edges ->
      let r = Relation.of_edges (Array.of_list edges) in
      let expect = List.sort_uniq compare edges in
      Array.to_list (Relation.to_edges r) = expect
      && Relation.size r = List.length expect)

let prop_degrees_consistent =
  QCheck.Test.make ~name:"degree arrays consistent with adjacency" ~count:100
    QCheck.(small_list (pair (int_bound 15) (int_bound 15)))
    (fun edges ->
      let r = Relation.of_edges ~src_count:16 ~dst_count:16 (Array.of_list edges) in
      let ds = Relation.degrees_src r in
      let dd = List.init 16 (Relation.deg_dst r) in
      Array.for_all (fun x -> x >= 0) ds
      && Array.fold_left ( + ) 0 ds = Relation.size r
      && List.fold_left ( + ) 0 dd = Relation.size r
      && Array.to_list ds
         = List.init 16 (fun a -> Array.length (Relation.adj_src r a)))

let test_fingerprint () =
  let edges = [| (0, 1); (2, 0); (0, 2) |] in
  let r1 = Relation.of_edges edges in
  let r2 = Relation.of_edges [| (0, 2); (0, 1); (2, 0); (2, 0) |] in
  Alcotest.(check bool) "structurally equal relations share a fp" true
    (Relation.fingerprint r1 = Relation.fingerprint r2);
  Alcotest.(check int) "memoized (second call identical)"
    (Relation.fingerprint r1) (Relation.fingerprint r1);
  let r3 = Relation.of_edges [| (0, 1); (2, 0) |] in
  Alcotest.(check bool) "different content differs" true
    (Relation.fingerprint r1 <> Relation.fingerprint r3);
  let t = Relation.transpose r1 in
  Alcotest.(check bool) "transpose differs" true
    (Relation.fingerprint r1 <> Relation.fingerprint t);
  (* padding dimensions changes the fingerprint: the derived artifacts
     (matrix shapes, partitions) depend on the declared universe *)
  let padded = Relation.of_edges ~src_count:10 ~dst_count:10 edges in
  Alcotest.(check bool) "dimensions are part of the identity" true
    (Relation.fingerprint r1 <> Relation.fingerprint padded);
  Alcotest.(check bool) "never the unset sentinel" true
    (Relation.fingerprint r1 <> 0)

let prop_fingerprint_respects_equality =
  QCheck.Test.make ~name:"equal relations fingerprint equally" ~count:300
    QCheck.(
      pair
        (small_list (pair (int_bound 5) (int_bound 5)))
        (small_list (pair (int_bound 5) (int_bound 5))))
    (fun (p1, p2) ->
      let build p = Relation.of_edges ~src_count:6 ~dst_count:6 (Array.of_list p) in
      let r1 = build p1 and r2 = build p2 in
      (not (Relation.equal r1 r2))
      || Relation.fingerprint r1 = Relation.fingerprint r2)

let test_stats () =
  (* degrees: value 0 -> 3, value 1 -> 1, value 2 -> 0, value 3 -> 1 *)
  let s = Stats.of_degrees [| 3; 1; 0; 1 |] in
  Alcotest.(check int) "active = count_gt 0" 3 (Stats.count_gt s 0);
  Alcotest.(check int) "max" 3 (Stats.max_degree s);
  Alcotest.(check int) "count_gt 1" 1 (Stats.count_gt s 1);
  Alcotest.(check int) "count_gt 3" 0 (Stats.count_gt s 3);
  (* default weights are the degrees: weight_le is the light degree mass *)
  Alcotest.(check int) "weight_le 0" 0 (Stats.weight_le s 0);
  Alcotest.(check int) "weight_le 1" 2 (Stats.weight_le s 1);
  Alcotest.(check int) "weight_le 3" 5 (Stats.weight_le s 3);
  let sq = Stats.reweight s [| 9; 1; 0; 1 |] in
  Alcotest.(check int) "squares weight_le 3" 11 (Stats.weight_le sq 3);
  Alcotest.(check int) "squares weight_le 1" 2 (Stats.weight_le sq 1)

let test_stats_weights () =
  let s = Stats.of_degrees ~weights:[| 10; 20; 30; 40 |] [| 2; 1; 0; 5 |] in
  Alcotest.(check int) "weight_le 1" 20 (Stats.weight_le s 1);
  Alcotest.(check int) "weight_le 2" 30 (Stats.weight_le s 2);
  Alcotest.(check int) "weight_le 5" 70 (Stats.weight_le s 5);
  Alcotest.(check int) "count_gt 2" 1 (Stats.count_gt s 2);
  let r = Stats.reweight s [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "reweight weight_le 2" 3 (Stats.weight_le r 2);
  Alcotest.(check int) "reweight keeps count_gt" 1 (Stats.count_gt r 2);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats: weights length mismatch") (fun () ->
      ignore (Stats.reweight s [| 1 |]))

let prop_stats_model =
  QCheck.Test.make ~name:"stats agree with direct scans" ~count:200
    QCheck.(pair (small_list (int_bound 10)) (int_bound 12))
    (fun (degs, d) ->
      let deg = Array.of_list degs in
      let s = Stats.of_degrees deg in
      let sq = Stats.reweight s (Array.map (fun x -> x * x) deg) in
      let active = List.filter (fun x -> x > 0) degs in
      let le = List.filter (fun x -> x <= d) active in
      Stats.count_gt s d = List.length active - List.length le
      && Stats.weight_le s d = List.fold_left ( + ) 0 le
      && Stats.weight_le sq d = List.fold_left (fun a x -> a + (x * x)) 0 le
      && Stats.max_degree s = List.fold_left max 0 degs)

let test_pairs () =
  let p = Pairs.of_rows [| [| 1; 3 |]; [||]; [| 0 |] |] in
  Alcotest.(check int) "count" 3 (Pairs.count p);
  Alcotest.(check bool) "mem" true (Pairs.mem p 0 3);
  Alcotest.(check bool) "not mem" false (Pairs.mem p 1 1);
  Alcotest.(check (list (pair int int))) "to_list" [ (0, 1); (0, 3); (2, 0) ]
    (Pairs.to_list p);
  let q = Pairs.of_rows [| [| 2 |]; [| 5 |] |] in
  let u = Pairs.union p q in
  Alcotest.(check int) "union count" 5 (Pairs.count u);
  Alcotest.check_raises "unsorted rejected"
    (Invalid_argument "Pairs.of_rows: row not strictly increasing") (fun () ->
      ignore (Pairs.of_rows [| [| 2; 1 |] |]))

(* The flat layout read in place and through the copying accessors:
   chunks placed in x order with their row lengths, empty rows, padding
   rows in [equal], the largest id each packing width holds and the
   first one it refuses, and the chunk buffers going back as spares. *)
let test_pairs_flat () =
  let module Vec = Jp_util.Vec in
  let chunk ids =
    let v = Pairs.chunk () in
    List.iter (Vec.push v) ids;
    v
  in
  let top = (1 lsl 31) - 1 in
  let p =
    Pairs.of_chunks ~lengths:[| 0; 2; 0; 1; 3 |] ~bound:(top + 1)
      [| chunk [ 1; 7 ]; chunk []; chunk [ 4; 0; 5; top ] |]
  in
  Alcotest.(check int) "src_count" 4 (Pairs.src_count p);
  Alcotest.(check int) "count" 6 (Pairs.count p);
  Alcotest.(check (list int)) "row lengths" [ 2; 0; 1; 3 ]
    (List.init 4 (Pairs.row_length p));
  Alcotest.(check (list (list int))) "rows" [ [ 1; 7 ]; []; [ 4 ]; [ 0; 5; top ] ]
    (List.init 4 (fun x -> Array.to_list (Pairs.row p x)));
  let seen = ref [] in
  Pairs.iter_row (fun z -> seen := z :: !seen) p 3;
  Alcotest.(check (list int)) "iter_row" [ top; 5; 0 ] !seen;
  Alcotest.(check bool) "mem top" true (Pairs.mem p 3 top);
  Alcotest.(check bool) "mem past the rows" false (Pairs.mem p 4 0);
  Alcotest.(check bool) "padding rows are empty" true
    (Pairs.equal p (Pairs.of_rows [| [| 1; 7 |]; [||]; [| 4 |]; [| 0; 5; top |]; [||] |]));
  Alcotest.(check bool) "a differing id differs" false
    (Pairs.equal p (Pairs.of_rows [| [| 1; 7 |]; [||]; [| 4 |]; [| 0; 5; top - 1 |] |]));
  Alcotest.(check int) "empty" 0 (Pairs.count (Pairs.empty 3));
  Alcotest.check_raises "an id past 31 bits"
    (Invalid_argument "Pairs: id bound past 2^31") (fun () ->
      ignore (Pairs.of_rows [| [| top + 1 |] |]));
  (* a domain of 2^16 ids packs them in 16 bits *)
  let narrow = (1 lsl 16) - 1 in
  let q = Pairs.of_chunks ~lengths:[| 0; 2 |] ~bound:(narrow + 1) [| chunk [ 0; narrow ] |] in
  Alcotest.(check (list int)) "narrow row" [ 0; narrow ] (Array.to_list (Pairs.row q 0));
  Alcotest.(check bool) "narrow = wide" true (Pairs.equal q (Pairs.of_rows [| [| 0; narrow |] |]));
  Alcotest.(check int) "union across widths" 8 (Pairs.count (Pairs.union p q));
  Alcotest.check_raises "an id past its bound's width"
    (Invalid_argument "Pairs: id outside its bound") (fun () ->
      ignore (Pairs.of_chunks ~lengths:[| 0; 1 |] ~bound:(narrow + 1) [| chunk [ narrow + 1 ] |]));
  Alcotest.check_raises "chunks shorter than the rows"
    (Invalid_argument "Pairs.gather: chunks do not hold the rows") (fun () ->
      ignore (Pairs.of_chunks ~lengths:[| 0; 2 |] ~bound:8 [| chunk [ 1 ] |]));
  (* a gathered chunk is a spare: the next one handed out is empty *)
  Alcotest.(check int) "spare comes back empty" 0 (Vec.length (Pairs.chunk ()))

let test_counted_pairs () =
  let c = Counted_pairs.of_rows [| ([| 1; 4 |], [| 2; 1 |]); ([| 0 |], [| 5 |]) |] in
  Alcotest.(check int) "count" 3 (Counted_pairs.count c);
  Alcotest.(check int) "witnesses" 8 (Counted_pairs.total_witnesses c);
  Alcotest.(check int) "get" 2 (Counted_pairs.get c 0 1);
  Alcotest.(check int) "get absent" 0 (Counted_pairs.get c 0 2);
  let f = Counted_pairs.filter_ge c 2 in
  Alcotest.(check int) "filter_ge" 2 (Counted_pairs.count f);
  let ordered = Counted_pairs.sorted_desc c in
  Alcotest.(check (list (triple int int int))) "sorted desc"
    [ (1, 0, 5); (0, 1, 2); (0, 4, 1) ]
    (Array.to_list ordered);
  Alcotest.(check (list (pair int int))) "to_pairs" [ (0, 1); (0, 4); (1, 0) ]
    (Testkit.Pairs.to_list (Counted_pairs.to_pairs c))

let test_tuples_packed () =
  let b = Tuples.create_builder ~arity:3 ~dims:[| 100; 100; 100 |] in
  Tuples.add b [| 1; 2; 3 |];
  Tuples.add b [| 1; 2; 3 |];
  Tuples.add b [| 99; 0; 50 |];
  let t = Tuples.build b in
  Alcotest.(check int) "count" 2 (Tuples.count t);
  Alcotest.(check (list (list int))) "to_list"
    [ [ 1; 2; 3 ]; [ 99; 0; 50 ] ]
    (Tuples.to_list t)

let test_tuples_hashed () =
  let huge = 1 lsl 40 in
  let b = Tuples.create_builder ~arity:2 ~dims:[| huge; huge |] in
  Tuples.add b [| 12345678901; 1 |];
  Tuples.add b [| 12345678901; 1 |];
  Tuples.add b [| 2; 2 |];
  let t = Tuples.build b in
  Alcotest.(check int) "count" 2 (Tuples.count t);
  Alcotest.(check (list (list int))) "to_list"
    [ [ 2; 2 ]; [ 12345678901; 1 ] ]
    (Tuples.to_list t)

let prop_tuples_dedup =
  QCheck.Test.make ~name:"tuples dedup like a set" ~count:200
    QCheck.(small_list (pair (int_bound 7) (int_bound 7)))
    (fun pairs ->
      let b = Tuples.create_builder ~arity:2 ~dims:[| 8; 8 |] in
      List.iter (fun (x, y) -> Tuples.add b [| x; y |]) pairs;
      let t = Tuples.build b in
      Tuples.count t = List.length (List.sort_uniq compare pairs))

let suite =
  [
    Alcotest.test_case "build dedup" `Quick test_build_dedup;
    Alcotest.test_case "of_sets" `Quick test_of_sets_roundtrip;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "filters" `Quick test_filters;
    Alcotest.test_case "join size / active" `Quick test_join_size_active;
    Alcotest.test_case "of_flat errors" `Quick test_of_flat_errors;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_degrees_consistent;
    Alcotest.test_case "fingerprint" `Quick test_fingerprint;
    QCheck_alcotest.to_alcotest prop_fingerprint_respects_equality;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "stats weights" `Quick test_stats_weights;
    QCheck_alcotest.to_alcotest prop_stats_model;
    Alcotest.test_case "pairs" `Quick test_pairs;
    Alcotest.test_case "pairs flat layout" `Quick test_pairs_flat;
    Alcotest.test_case "counted pairs" `Quick test_counted_pairs;
    Alcotest.test_case "tuples packed" `Quick test_tuples_packed;
    Alcotest.test_case "tuples hashed" `Quick test_tuples_hashed;
    QCheck_alcotest.to_alcotest prop_tuples_dedup;
  ]
