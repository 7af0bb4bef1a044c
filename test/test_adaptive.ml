(* Jp_adaptive: misestimation injection, the guard's verdict state machine,
   and the invariant every guarded engine must uphold — whatever route the
   injected misestimation or an exhausted budget forces, the result is
   exactly the unguarded one. *)

module Guard = Jp_adaptive.Guard
module Inject = Testkit.Inject
module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Testkit.Counted_pairs
module Optimizer = Joinproj.Optimizer
module Tile = Jp_matrix.Tile

let guard_with inj = Guard.with_inject inj Guard.default

(* Run [f] with Jp_obs recording on and a clean slate, restoring the
   disabled state afterwards even on failure. *)
let with_recording f =
  Jp_obs.reset ();
  Jp_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Jp_obs.disable ();
      Jp_obs.reset ())
    f

let only_plan_record () =
  match Jp_obs.plan_records () with
  | [ pr ] -> pr
  | l -> Alcotest.failf "expected exactly one plan record, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Inject                                                              *)
(* ------------------------------------------------------------------ *)

let test_inject_none () =
  Alcotest.(check bool) "is_none" true (Inject.is_none Inject.none);
  Alcotest.(check int) "out untouched" 12345 (Inject.out Inject.none 12345);
  Alcotest.(check bool) "a real factor is not none" false
    (Inject.is_none (Inject.out_only 0.5))

let test_inject_factors () =
  let u = Inject.uniform 0.01 in
  Alcotest.(check int) "100x underestimate" 10 (Inject.out u 1000);
  Alcotest.(check int) "clamped to >= 1" 1 (Inject.out u 3);
  let o = Inject.out_only 100.0 in
  Alcotest.(check int) "100x overestimate" 100_000 (Inject.out o 1000);
  Alcotest.(check (float 0.0)) "mm cost untouched" 1.0 o.Inject.mm_factor;
  let m = Inject.mm_only 3.0 in
  Alcotest.(check int) "out untouched" 1000 (Inject.out m 1000);
  Alcotest.check_raises "rejects a zero factor"
    (Invalid_argument "Inject.out_only: factor must be finite and positive")
    (fun () -> ignore (Inject.out_only 0.0))

(* ------------------------------------------------------------------ *)
(* Guard state machine                                                 *)
(* ------------------------------------------------------------------ *)

let test_config_builders () =
  let cfg =
    Guard.default
    |> Guard.with_budget_ms 250.0
    |> Guard.with_inject (Inject.out_only 0.5)
  in
  (match cfg.Guard.budget.Guard.max_seconds with
  | Some s -> Alcotest.(check (float 1e-12)) "milliseconds to seconds" 0.25 s
  | None -> Alcotest.fail "with_budget_ms did not set the budget");
  Alcotest.(check bool) "injection stored" true (cfg.Guard.inject = Inject.out_only 0.5);
  Alcotest.check_raises "rejects a negative budget"
    (Invalid_argument "Guard.with_budget_ms: negative budget")
    (fun () -> ignore (Guard.with_budget_ms (-1.0) Guard.default));
  Alcotest.check_raises "rejects divergence <= 1"
    (Invalid_argument "Guard.start: divergence must be > 1")
    (fun () -> ignore (Guard.start { Guard.default with Guard.divergence = 1.0 }))

let test_budget_verdicts () =
  let g = Guard.start Guard.default in
  Alcotest.(check bool) "no budget always continues" true
    (Guard.check_budget g ~cells:max_int = Guard.Continue);
  let g = Guard.start (Guard.with_budget_ms 0.0 Guard.default) in
  Alcotest.(check bool) "zero time budget degrades at once" true
    (Guard.check_budget g ~cells:0 = Guard.Degrade);
  let cells_cfg =
    {
      Guard.default with
      Guard.budget = { Guard.max_seconds = None; max_cells = Some 100 };
    }
  in
  let g = Guard.start cells_cfg in
  Alcotest.(check bool) "cells within budget" true
    (Guard.check_budget g ~cells:100 = Guard.Continue);
  Alcotest.(check bool) "cells beyond budget" true
    (Guard.check_budget g ~cells:101 = Guard.Degrade)

let test_estimate_verdicts () =
  let g = Guard.start Guard.default in
  (* default divergence is 8 *)
  Alcotest.(check bool) "observed within the factor" true
    (Guard.check_estimate g ~est:100.0 ~observed:799.0 = Guard.Continue);
  Alcotest.(check bool) "observed under but within" true
    (Guard.check_estimate g ~est:100.0 ~observed:13.0 = Guard.Continue);
  Alcotest.(check bool) "missing estimate never triggers" true
    (Guard.check_estimate g ~est:0.0 ~observed:1e9 = Guard.Continue);
  Alcotest.(check bool) "overshoot replans" true
    (Guard.check_estimate g ~est:100.0 ~observed:801.0 = Guard.Replan);
  Alcotest.(check bool) "undershoot replans" true
    (Guard.check_estimate g ~est:100.0 ~observed:12.0 = Guard.Replan);
  Alcotest.(check bool) "fuel available before the replan" true (Guard.can_replan g);
  Guard.note_replan g;
  Alcotest.(check bool) "fuel spent" false (Guard.can_replan g);
  Alcotest.(check bool) "no fuel, no replan verdict" true
    (Guard.check_estimate g ~est:100.0 ~observed:1e6 = Guard.Continue)

let test_outcome_flags () =
  let g = Guard.start Guard.default in
  Alcotest.(check bool) "clean start" false (Guard.replanned g || Guard.degraded g);
  Alcotest.(check int) "no checkpoints yet" 0 (Guard.checkpoints g);
  ignore (Guard.check_budget g ~cells:0);
  ignore (Guard.check_estimate g ~est:1.0 ~observed:1.0);
  Alcotest.(check int) "checkpoints counted" 2 (Guard.checkpoints g);
  Guard.note_replan g;
  Guard.note_degrade g;
  Alcotest.(check bool) "outcome flags set" true
    (Guard.replanned g && Guard.degraded g)

let test_counters_published () =
  with_recording (fun () ->
      let g = Guard.start Guard.default in
      ignore (Guard.check_budget g ~cells:0);
      Guard.note_replan g;
      Guard.note_degrade g;
      Guard.note_degrade g;
      let v name =
        Option.value ~default:0 (List.assoc_opt name (Jp_obs.counter_values ()))
      in
      Alcotest.(check int) "guard.checkpoints" 1 (v "guard.checkpoints");
      Alcotest.(check int) "guard.replans" 1 (v "guard.replans");
      Alcotest.(check int) "guard.degrades counted once" 1 (v "guard.degrades"))

(* ------------------------------------------------------------------ *)
(* Guarded engines: edge cases                                         *)
(* ------------------------------------------------------------------ *)

let test_empty_relation () =
  let r = Relation.of_edges ~src_count:5 ~dst_count:4 [||] in
  let out = Joinproj.Two_path.project ~guard:Guard.default ~r ~s:r () in
  Alcotest.(check int) "no pairs" 0 (Pairs.count out);
  let counted =
    Joinproj.Two_path.project_counts
      ~guard:(guard_with (Inject.uniform 0.01))
      ~r ~s:r ()
  in
  Alcotest.(check int) "no counted pairs" 0 (Counted_pairs.count counted)

let test_all_heavy_value () =
  (* Every tuple shares one y: a single all-heavy value whose expansion is
     the full nx x nx rectangle, whatever the injected estimate says. *)
  let nx = 40 in
  let edges = Array.init nx (fun x -> (x, 0)) in
  let r = Relation.of_edges ~src_count:nx ~dst_count:1 edges in
  let expect = Gen.brute_two_path ~r ~s:r in
  List.iter
    (fun f ->
      let out =
        Joinproj.Two_path.project ~guard:(guard_with (Inject.out_only f)) ~r
          ~s:r ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "inject factor %g" f)
        true
        (Gen.pairs_to_list out = expect))
    [ 0.01; 1.0; 100.0 ]

(* A zero budget degrades at entry on every engine of the frame, at
   any domain count. *)
let test_zero_budget_degrades () =
  let module Two_path = Joinproj.Two_path in
  let r = Gen.skewed_relation ~seed:42 ~nx:60 ~ny:40 ~edges:600 () in
  let guard = Guard.with_budget_ms 0.0 Guard.default in
  let unguarded = Two_path.project ~r ~s:r () in
  let counted = Gen.counted_to_list (Two_path.project_counts ~r ~s:r ()) in
  let similar = Two_path.ssj ~c:2 r in
  List.iter
    (fun domains ->
      let degraded name same run =
        with_recording (fun () ->
            Alcotest.(check bool)
              (Printf.sprintf "%s result unchanged, domains %d" name domains)
              true (same (run ()));
            Alcotest.(check bool)
              (Printf.sprintf "%s recorded as degraded, domains %d" name domains)
              true (only_plan_record ()).Jp_obs.degraded)
      in
      degraded "project" (Pairs.equal unguarded) (fun () ->
          Two_path.project ~domains ~guard ~r ~s:r ());
      degraded "project_counts"
        (fun c -> Gen.counted_to_list c = counted)
        (fun () -> Two_path.project_counts ~domains ~guard ~r ~s:r ());
      degraded "ssj" (Pairs.equal similar) (fun () ->
          Two_path.ssj ~domains ~guard ~c:2 r))
    [ 1; 3 ]

(* The budget is marked once per query, not per output tile: a live
   guard on a forced partitioned plan counts the same checkpoints
   whether the heavy count product is one tile or many. *)
let test_checkpoints_independent_of_tiles () =
  let r = Gen.skewed_relation ~seed:9 ~nx:80 ~ny:50 ~edges:900 () in
  let plan =
    {
      Optimizer.decision = Optimizer.Partitioned { d1 = 2; d2 = 2 };
      est_out = 1;
      join_size = 1;
      est_seconds = 0.0;
    }
  in
  let counters tile =
    with_recording (fun () ->
        ignore
          (Joinproj.Two_path.project_counts ~plan ~guard:Guard.default ?tile ~r ~s:r ());
        let v name =
          Option.value ~default:0
            (List.assoc_opt name (Jp_obs.counter_values ()))
        in
        (v "guard.checkpoints", v "tile.product"))
  in
  let small_checks, small_tiles =
    counters (Some (Tile.config ~tile_bits:4 ()))
  in
  let default_checks, default_tiles = counters None in
  Alcotest.(check bool) "tile_bits 4 splits the product" true
    (small_tiles > default_tiles);
  Alcotest.(check int) "same guard.checkpoints" default_checks small_checks

let test_cells_budget_vetoes_matrices () =
  (* A forced Partitioned plan whose matrices exceed a one-cell budget:
     the pre-MM checkpoint must fall back to the combinatorial heavy part
     mid-plan, after the split is already materialized. *)
  let r = Gen.skewed_relation ~seed:9 ~nx:80 ~ny:50 ~edges:900 () in
  let unguarded = Joinproj.Two_path.project ~r ~s:r () in
  let plan =
    {
      Optimizer.decision = Optimizer.Partitioned { d1 = 2; d2 = 2 };
      est_out = 1;
      join_size = 1;
      est_seconds = 0.0;
    }
  in
  let guard =
    {
      Guard.default with
      Guard.budget = { Guard.max_seconds = None; max_cells = Some 1 };
    }
  in
  with_recording (fun () ->
      let out = Joinproj.Two_path.project ~plan ~guard ~r ~s:r () in
      Alcotest.(check bool) "result unchanged" true (Pairs.equal unguarded out);
      Alcotest.(check bool) "recorded as degraded" true
        (only_plan_record ()).Jp_obs.degraded)

let test_injected_underestimate_replans () =
  (* A 100x |OUT| underestimate must trip a divergence checkpoint: the
     engine re-plans with observed statistics and still matches. *)
  let r = Gen.skewed_relation ~seed:77 ~nx:400 ~ny:120 ~edges:4000 () in
  let unguarded = Joinproj.Two_path.project ~r ~s:r () in
  with_recording (fun () ->
      let out =
        Joinproj.Two_path.project
          ~guard:(guard_with (Inject.out_only 0.01))
          ~r ~s:r ()
      in
      Alcotest.(check bool) "result unchanged" true (Pairs.equal unguarded out);
      Alcotest.(check bool) "recorded as replanned" true
        (only_plan_record ()).Jp_obs.replanned)

let test_mm_injection_invariant () =
  let r = Gen.skewed_relation ~seed:5 ~nx:150 ~ny:60 ~edges:1500 () in
  let unguarded = Joinproj.Two_path.project ~r ~s:r () in
  List.iter
    (fun f ->
      let out =
        Joinproj.Two_path.project ~guard:(guard_with (Inject.mm_only f)) ~r
          ~s:r ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "mm factor %g" f)
        true (Pairs.equal unguarded out))
    [ 0.01; 100.0 ]

let test_clean_guard_is_transparent () =
  let r = Gen.random_relation ~seed:3 ~nx:100 ~ny:80 ~edges:1200 () in
  let unguarded = Joinproj.Two_path.project ~r ~s:r () in
  with_recording (fun () ->
      let out = Joinproj.Two_path.project ~guard:Guard.default ~r ~s:r () in
      Alcotest.(check bool) "result unchanged" true (Pairs.equal unguarded out);
      let pr = only_plan_record () in
      Alcotest.(check bool) "neither replanned nor degraded" false
        (pr.Jp_obs.replanned || pr.Jp_obs.degraded))

let test_guardless_is_inert () =
  (* No guard means the inert one: the same supervised path runs, but no
     [guard.*] counter moves and no outcome is recorded. *)
  let r = Gen.skewed_relation ~seed:42 ~nx:60 ~ny:40 ~edges:600 () in
  let plan decision =
    { Optimizer.decision; est_out = 1; join_size = 1; est_seconds = 0.0 }
  in
  let partitioned = plan (Optimizer.Partitioned { d1 = 2; d2 = 2 }) in
  let rels =
    [|
      Gen.random_relation ~seed:61 ~nx:12 ~ny:10 ~edges:50 ();
      Gen.random_relation ~seed:62 ~nx:12 ~ny:10 ~edges:50 ();
    |]
  in
  with_recording (fun () ->
      List.iter
        (fun guard ->
          List.iter
            (fun plan ->
              ignore (Joinproj.Two_path.project ?guard ?plan ~r ~s:r ());
              ignore (Joinproj.Two_path.project_counts ?guard ?plan ~r ~s:r ()))
            [ None; Some (plan Optimizer.Wcoj); Some partitioned ];
          ignore (Joinproj.Star.project ?guard rels))
        [ None; Some Guard.inert ];
      let v name =
        Option.value ~default:0 (List.assoc_opt name (Jp_obs.counter_values ()))
      in
      List.iter
        (fun name -> Alcotest.(check int) name 0 (v name))
        [ "guard.checkpoints"; "guard.replans"; "guard.degrades" ];
      let records = Jp_obs.plan_records () in
      Alcotest.(check int) "one record per call" 14 (List.length records);
      List.iter
        (fun pr ->
          Alcotest.(check bool) "neither replanned nor degraded" false
            (pr.Jp_obs.replanned || pr.Jp_obs.degraded))
        records)

let test_counts_guarded_invariant () =
  let r = Gen.skewed_relation ~seed:21 ~nx:120 ~ny:60 ~edges:1400 () in
  let reference = Gen.counted_to_list (Joinproj.Two_path.project_counts ~r ~s:r ()) in
  List.iter
    (fun f ->
      let counted =
        Joinproj.Two_path.project_counts ~guard:(guard_with (Inject.uniform f))
          ~r ~s:r ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "inject factor %g" f)
        true
        (Gen.counted_to_list counted = reference))
    [ 0.01; 1.0; 100.0 ];
  let guard =
    {
      Guard.default with
      Guard.budget = { Guard.max_seconds = None; max_cells = Some 10 };
    }
  in
  let counted = Joinproj.Two_path.project_counts ~guard ~r ~s:r () in
  Alcotest.(check bool) "cells budget keeps counts exact" true
    (Gen.counted_to_list counted = reference)

(* ------------------------------------------------------------------ *)
(* Guarded engines: star / ssj / scj / bsi                             *)
(* ------------------------------------------------------------------ *)

let test_star_guarded_invariant () =
  let rels =
    [|
      Gen.random_relation ~seed:61 ~nx:12 ~ny:10 ~edges:50 ();
      Gen.random_relation ~seed:62 ~nx:12 ~ny:10 ~edges:50 ();
      Gen.random_relation ~seed:63 ~nx:12 ~ny:10 ~edges:50 ();
    |]
  in
  let reference = Joinproj.Star.project rels in
  Alcotest.(check bool) "clean guard" true
    (Testkit.Tuples.equal reference
       (Joinproj.Star.project ~guard:Guard.default rels));
  Alcotest.(check bool) "zero budget degrades but agrees" true
    (Testkit.Tuples.equal reference
       (Joinproj.Star.project ~guard:(Guard.with_budget_ms 0.0 Guard.default) rels))

let test_ssj_guarded_invariant () =
  let r = Gen.skewed_relation ~seed:71 ~nx:40 ~ny:25 ~edges:300 () in
  let reference = Jp_ssj.Mm_ssj.join ~c:2 r in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "inject factor %g" f)
        true
        (Pairs.equal reference
           (Jp_ssj.Mm_ssj.join ~guard:(guard_with (Inject.uniform f)) ~c:2 r)))
    [ 0.01; 1.0; 100.0 ]

let test_scj_guarded_invariant () =
  let r = Gen.random_relation ~seed:81 ~nx:30 ~ny:12 ~edges:120 () in
  let reference = Jp_scj.Mm_scj.join r in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "inject factor %g" f)
        true
        (Pairs.equal reference
           (Jp_scj.Mm_scj.join ~guard:(guard_with (Inject.uniform f)) r)))
    [ 0.01; 100.0 ]

let test_bsi_guarded_invariant () =
  let r = Gen.random_relation ~seed:91 ~nx:30 ~ny:25 ~edges:200 () in
  let queries =
    Jp_workload.Generate.batch_queries ~seed:4 ~count:150 ~nx:30 ~nz:30 ()
  in
  let plain = Jp_bsi.Bsi.answer_batch ~r ~s:r queries in
  List.iter
    (fun f ->
      let guarded =
        Jp_bsi.Bsi.answer_batch ~guard:(guard_with (Inject.uniform f)) ~r ~s:r
          queries
      in
      Alcotest.(check bool)
        (Printf.sprintf "inject factor %g" f)
        true (guarded = plain))
    [ 0.01; 100.0 ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_guard_never_changes_output =
  QCheck.Test.make ~name:"guarded two-path = brute force under any injection"
    ~count:60
    QCheck.(pair small_int (oneofl [ 0.01; 0.2; 1.0; 5.0; 100.0 ]))
    (fun (seed, f) ->
      let r = Gen.random_relation ~seed:(seed + 11_000) ~nx:14 ~ny:10 ~edges:60 () in
      let s = Gen.random_relation ~seed:(seed + 11_500) ~nx:13 ~ny:10 ~edges:55 () in
      let guard = guard_with (Inject.uniform f) in
      Gen.pairs_to_list (Joinproj.Two_path.project ~guard ~r ~s ())
      = Gen.brute_two_path ~r ~s)

let prop_guarded_counts_match_brute =
  QCheck.Test.make ~name:"guarded counted project = brute-force witness counts"
    ~count:40
    QCheck.(pair small_int (oneofl [ 0.01; 1.0; 100.0 ]))
    (fun (seed, f) ->
      let r = Gen.random_relation ~seed:(seed + 13_000) ~nx:12 ~ny:9 ~edges:55 () in
      let s = Gen.skewed_relation ~seed:(seed + 13_500) ~nx:11 ~ny:9 ~edges:50 () in
      let guard = guard_with (Inject.uniform f) in
      Gen.counted_to_list (Joinproj.Two_path.project_counts ~guard ~r ~s ())
      = Gen.brute_two_path_counts ~r ~s)

(* The optimizer-invariant properties (thresholds bounded/antitone, plan
   determinism, guard checksum invariance) live in test_properties.ml with
   the other cross-cutting randomized checks. *)

let suite =
  [
    Alcotest.test_case "inject none is identity" `Quick test_inject_none;
    Alcotest.test_case "inject factors apply and clamp" `Quick test_inject_factors;
    Alcotest.test_case "guard config builders" `Quick test_config_builders;
    Alcotest.test_case "budget verdicts" `Quick test_budget_verdicts;
    Alcotest.test_case "estimate verdicts and fuel" `Quick test_estimate_verdicts;
    Alcotest.test_case "outcome flags and checkpoints" `Quick test_outcome_flags;
    Alcotest.test_case "guard counters published" `Quick test_counters_published;
    Alcotest.test_case "empty relation under guard" `Quick test_empty_relation;
    Alcotest.test_case "all-heavy value under guard" `Quick test_all_heavy_value;
    Alcotest.test_case "zero budget degrades to the safe path" `Quick
      test_zero_budget_degrades;
    Alcotest.test_case "cells budget vetoes the matrices" `Quick
      test_cells_budget_vetoes_matrices;
    Alcotest.test_case "checkpoints independent of the tile count" `Quick
      test_checkpoints_independent_of_tiles;
    Alcotest.test_case "injected underestimate replans" `Quick
      test_injected_underestimate_replans;
    Alcotest.test_case "mm-cost injection keeps results" `Quick
      test_mm_injection_invariant;
    Alcotest.test_case "clean guard is transparent" `Quick
      test_clean_guard_is_transparent;
    Alcotest.test_case "guarded counts stay exact" `Quick
      test_counts_guarded_invariant;
    Alcotest.test_case "guard-less engines are inert" `Quick
      test_guardless_is_inert;
    Alcotest.test_case "guarded star agrees" `Quick test_star_guarded_invariant;
    Alcotest.test_case "guarded ssj agrees" `Quick test_ssj_guarded_invariant;
    Alcotest.test_case "guarded scj agrees" `Quick test_scj_guarded_invariant;
    Alcotest.test_case "guarded bsi agrees" `Quick test_bsi_guarded_invariant;
    QCheck_alcotest.to_alcotest prop_guard_never_changes_output;
    QCheck_alcotest.to_alcotest prop_guarded_counts_match_brute;
  ]
