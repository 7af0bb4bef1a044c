module Relation = Jp_relation.Relation
module Tuples = Testkit.Tuples
module Star = Joinproj.Star

let brute rels =
  Tuples.to_list (Jp_wcoj.Star.project rels)

let star_threshold_check rels =
  let expect = brute rels in
  List.iter
    (fun (d1, d2) ->
      List.iter
        (fun strategy ->
          let got = Star.project ~strategy ~thresholds:(d1, d2) rels in
          Alcotest.(check (list (list int)))
            (Printf.sprintf "star d1=%d d2=%d" d1 d2)
            expect (Tuples.to_list got))
        [ Star.Matrix; Star.Combinatorial ])
    [ (1, 1); (1, 2); (2, 1); (2, 2); (3, 3); (50, 50) ]

let test_star3_uniform () =
  star_threshold_check
    [|
      Gen.random_relation ~seed:61 ~nx:12 ~ny:10 ~edges:50 ();
      Gen.random_relation ~seed:62 ~nx:11 ~ny:10 ~edges:45 ();
      Gen.random_relation ~seed:63 ~nx:10 ~ny:10 ~edges:40 ();
    |]

let test_star3_skewed () =
  star_threshold_check
    [|
      Gen.skewed_relation ~seed:64 ~nx:14 ~ny:12 ~edges:80 ();
      Gen.skewed_relation ~seed:65 ~nx:13 ~ny:12 ~edges:70 ();
      Gen.skewed_relation ~seed:66 ~nx:12 ~ny:12 ~edges:60 ();
    |]

let test_star4 () =
  star_threshold_check
    [|
      Gen.skewed_relation ~seed:67 ~nx:8 ~ny:8 ~edges:30 ();
      Gen.skewed_relation ~seed:68 ~nx:8 ~ny:8 ~edges:28 ();
      Gen.skewed_relation ~seed:69 ~nx:8 ~ny:8 ~edges:26 ();
      Gen.skewed_relation ~seed:70 ~nx:8 ~ny:8 ~edges:24 ();
    |]

let test_star2_matches_two_path () =
  let r = Gen.skewed_relation ~seed:71 ~nx:20 ~ny:15 ~edges:100 () in
  let s = Gen.skewed_relation ~seed:72 ~nx:18 ~ny:15 ~edges:90 () in
  let star = Star.project ~thresholds:(2, 2) [| r; s |] in
  let two = Jp_wcoj.Expand.project ~r ~s () in
  Alcotest.(check (list (list int)))
    "k=2 star = 2-path"
    (List.map (fun (x, z) -> [ x; z ]) (Testkit.Pairs.to_list two))
    (Tuples.to_list star)

let test_star_self_join () =
  let r = Gen.skewed_relation ~seed:73 ~nx:12 ~ny:12 ~edges:70 () in
  star_threshold_check [| r; r; r |]

let test_star_default_thresholds () =
  let rels =
    [|
      Gen.skewed_relation ~seed:74 ~nx:15 ~ny:12 ~edges:90 ();
      Gen.skewed_relation ~seed:75 ~nx:14 ~ny:12 ~edges:85 ();
      Gen.skewed_relation ~seed:76 ~nx:13 ~ny:12 ~edges:80 ();
    |]
  in
  let d1, d2 = Star.choose_thresholds rels in
  Alcotest.(check bool) "thresholds sane" true (d1 >= 1 && d2 >= 1);
  Alcotest.(check (list (list int)))
    "default thresholds correct" (brute rels)
    (Tuples.to_list (Star.project rels))

let test_star_parallel () =
  let rels =
    [|
      Gen.skewed_relation ~seed:77 ~nx:16 ~ny:14 ~edges:100 ();
      Gen.skewed_relation ~seed:78 ~nx:15 ~ny:14 ~edges:95 ();
      Gen.skewed_relation ~seed:79 ~nx:14 ~ny:14 ~edges:90 ();
    |]
  in
  let seq = Star.project ~thresholds:(2, 2) rels in
  let par = Star.project ~domains:4 ~thresholds:(2, 2) rels in
  Alcotest.(check bool) "parallel = sequential" true (Tuples.equal seq par)

(* Mixed y domains, as produced by the query engine's mixed-orientation
   stars (some atoms transposed): relations whose dst counts differ.
   Regression: the heavy residue used to index adjacency past the smaller
   relations' dst space. *)
let test_star_mixed_dst_counts () =
  star_threshold_check
    [|
      Gen.skewed_relation ~seed:81 ~nx:12 ~ny:7 ~edges:60 ();
      Relation.transpose (Gen.skewed_relation ~seed:82 ~nx:15 ~ny:12 ~edges:70 ());
      Gen.skewed_relation ~seed:83 ~nx:11 ~ny:9 ~edges:55 ();
    |]

let test_star_arity_guard () =
  let r = Gen.random_relation ~seed:80 ~nx:5 ~ny:5 ~edges:10 () in
  Alcotest.check_raises "arity" (Invalid_argument "Star.project: arity must be >= 2")
    (fun () -> ignore (Star.project [| r |]))

(* The matrix strategy equals the WCOJ oracle over k ∈ {2, 3, 4}, drawn
   thresholds and domains {1, 3}, on uniform, skewed and mixed y-domain
   stars (one relation transposed, so the dst counts differ); a
   one-cell budget caps the combo interning at zero, so those draws
   take the [Matrix_overflow] fallback. *)
let prop_matrix_matches_oracle =
  let gen =
    QCheck.Gen.(
      pair
        (quad (int_range 2 4) small_nat (int_range 0 2) bool)
        (triple (pair (int_range 1 4) (int_range 1 4)) (oneofl [ 1; 3 ]) bool))
  in
  let print ((k, seed, family, mixed), ((d1, d2), domains, overflow)) =
    Printf.sprintf "k=%d seed=%d family=%d mixed=%b d1=%d d2=%d domains=%d overflow=%b"
      k seed family mixed d1 d2 domains overflow
  in
  QCheck.Test.make ~name:"star matrix = WCOJ oracle over k, thresholds, domains"
    ~count:120 (QCheck.make ~print gen)
    (fun ((k, seed, family, mixed), ((d1, d2), domains, overflow)) ->
      let rels =
        Array.init k (fun i ->
            let seed = (10 * seed) + i and nx = 10 + i and ny = 9 + (2 * i) in
            let r =
              match family with
              | 0 -> Gen.random_relation ~seed ~nx ~ny ~edges:45 ()
              | _ -> Gen.skewed_relation ~seed ~nx ~ny ~edges:55 ()
            in
            if mixed && i = 1 then
              Relation.transpose (Gen.skewed_relation ~seed ~nx:ny ~ny:nx ~edges:50 ())
            else r)
      in
      let guard =
        if overflow then
          Some
            {
              Jp_adaptive.Guard.inert with
              Jp_adaptive.Guard.budget =
                { Jp_adaptive.Guard.max_seconds = None; max_cells = Some 1 };
            }
        else None
      in
      Tuples.to_list
        (Star.project ~domains ~strategy:Star.Matrix ~thresholds:(d1, d2) ?guard rels)
      = brute rels)

let tile_products f =
  Jp_obs.reset ();
  Jp_obs.enable ();
  Fun.protect
    ~finally:(fun () -> Jp_obs.disable (); Jp_obs.reset ())
    (fun () ->
      let outcome = try Ok (f ()) with e -> Error e in
      (outcome, Jp_obs.value Jp_obs.C.tile_products))

(* A cancel token tripped from the pool's chunk hook at the claim of the
   heavy product's second output tile stops the star before its
   remaining tiles run: Star's V·W product polls cancel once per tile.
   About 4000 heavy combos per side make several tiles at domains = 1
   (past the 2048 cap and the band bound) and at domains = 3. *)
let test_heavy_product_cancel () =
  let r = Gen.random_relation ~seed:91 ~nx:5000 ~ny:2500 ~edges:15000 () in
  let rels = [| r; r |] in
  List.iter
    (fun domains ->
      let run ?cancel () =
        Star.project ~domains ~thresholds:(1, 1) ?cancel rels
      in
      let total =
        match tile_products (fun () -> ignore (run ())) with
        | Ok (), n -> n
        | Error e, _ -> raise e
      in
      Alcotest.(check bool)
        (Printf.sprintf "several tiles at domains=%d (%d)" domains total)
        true (total >= 4);
      let cancel = Jp_util.Cancel.create () in
      let trip () =
        if Jp_obs.value Jp_obs.C.tile_products >= 1 then
          Jp_util.Cancel.cancel cancel
      in
      let outcome, ran =
        Jp_parallel.Pool.set_fault_hook (Some trip);
        Fun.protect
          ~finally:(fun () -> Jp_parallel.Pool.set_fault_hook None)
          (fun () -> tile_products (fun () -> ignore (run ~cancel ())))
      in
      (match outcome with
      | Error (Jp_util.Cancel.Cancelled Jp_util.Cancel.Requested) -> ()
      | Error e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)
      | Ok () -> Alcotest.fail "the cancelled star returned");
      if domains = 1 then
        Alcotest.(check int)
          (Printf.sprintf "exactly one of %d tiles at domains=1" total)
          1 ran
      else
        Alcotest.(check bool)
          (Printf.sprintf "stopped after %d of %d tiles at domains=%d" ran total
             domains)
          true
          (ran >= 1 && ran < total))
    [ 1; 3 ]

let suite =
  [
    Alcotest.test_case "star3 uniform" `Quick test_star3_uniform;
    Alcotest.test_case "star3 skewed" `Quick test_star3_skewed;
    Alcotest.test_case "star4" `Quick test_star4;
    Alcotest.test_case "star k=2 = two-path" `Quick test_star2_matches_two_path;
    Alcotest.test_case "star self join" `Quick test_star_self_join;
    Alcotest.test_case "star default thresholds" `Quick test_star_default_thresholds;
    Alcotest.test_case "star parallel" `Quick test_star_parallel;
    Alcotest.test_case "star mixed dst counts" `Quick test_star_mixed_dst_counts;
    Alcotest.test_case "star arity guard" `Quick test_star_arity_guard;
    QCheck_alcotest.to_alcotest prop_matrix_matches_oracle;
    Alcotest.test_case "heavy product cancel" `Quick test_heavy_product_cancel;
  ]
