(* jp_lint rule tests: each rule is exercised against a compiled fixture
   (test/lint_fixtures), one positive and one negative case per rule,
   plus the suppression and malformed-suppression paths.  The fixtures
   are linted with an explicit kind override because the repo-wide run
   deliberately skips the fixture directory. *)

module Driver = Jp_lint_core.Lint_driver
module Ctx = Jp_lint_core.Lint_ctx
module Registry = Jp_lint_core.Lint_registry
module Finding = Jp_lint_core.Lint_finding
module Report = Jp_lint_core.Lint_report
module Util = Jp_lint_core.Lint_util

let fixture_cmt name =
  Filename.concat "lint_fixtures/.jp_lint_fixtures.objs/byte"
    ("jp_lint_fixtures__" ^ String.capitalize_ascii name ^ ".cmt")

(* Lint one fixture as if it lived in an engine library (lib/core), so
   every rule — including the engine-only ones — is in scope. *)
let selection = Registry.select ()

let lint ?(kind = Ctx.Lib "core") name =
  let path = fixture_cmt name in
  if not (Sys.file_exists path) then
    Alcotest.failf "fixture cmt missing: %s (cwd %s)" path (Sys.getcwd ());
  Driver.lint_cmt ~kind ~selection path

let count rule fs = List.length (List.filter (fun f -> f.Finding.rule = rule) fs)

let unsuppressed rule fs =
  List.exists
    (fun f -> f.Finding.rule = rule && f.Finding.suppressed = None)
    fs

let check_fires rule name () =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires on %s" rule name)
    true
    (unsuppressed rule (lint name))

let check_clean rule name () =
  Alcotest.(check int)
    (Printf.sprintf "%s clean on %s" rule name)
    0
    (count rule (lint name))

let test_suppression () =
  let fs = lint "suppressed_random" in
  let sup =
    List.filter
      (fun f -> f.Finding.rule = "random" && f.Finding.suppressed <> None)
      fs
  in
  Alcotest.(check int) "one suppressed random finding" 1 (List.length sup);
  Alcotest.(check bool) "suppressed findings never block" false
    (List.exists
       (fun f -> f.Finding.rule = "random" && Finding.is_blocking f)
       fs)

let test_bad_suppression () =
  let fs = lint "bad_suppression" in
  Alcotest.(check bool) "justification-free allow is flagged" true
    (unsuppressed Ctx.bad_suppression_rule fs);
  Alcotest.(check bool) "the underlying finding still blocks" true
    (unsuppressed "random" fs)

(* hashtbl-dedup is engine-only: the same fixture linted as test code
   must be silent. *)
let test_kind_scoping () =
  Alcotest.(check int) "engine-only rule silent outside engines" 0
    (count "hashtbl-dedup" (lint ~kind:Ctx.Test "bad_hashtbl_dedup"))

(* Both positives in bad_hot_poll/bad_open really are two sites. *)
let test_counts () =
  Alcotest.(check int) "both opens flagged" 2 (count "no-open" (lint "bad_open"));
  Alcotest.(check int) "both dedup calls flagged" 2
    (count "hashtbl-dedup" (lint "bad_hashtbl_dedup"))

(* ------------------------------------------------------------------ *)
(* interprocedural rules                                               *)

let test_drop_chain () =
  let fs = lint "bad_capability_drop" in
  match List.find_opt (fun f -> f.Finding.rule = "capability-drop") fs with
  | None -> Alcotest.fail "no capability-drop finding"
  | Some f ->
    Alcotest.(check (list string))
      "call-chain evidence"
      [
        "Jp_lint_fixtures.Bad_capability_drop.caller";
        "Jp_lint_fixtures.Bad_capability_drop.callee";
      ]
      f.Finding.chain

(* The drop in bad_drop_cross calls into bad_capability_drop's callee:
   the finding only exists when both files merge into one call graph. *)
let test_cross_file_chain () =
  let fs =
    Driver.lint_cmts ~selection
      [
        (Some (Ctx.Lib "core"), fixture_cmt "bad_capability_drop");
        (Some (Ctx.Lib "core"), fixture_cmt "bad_drop_cross");
      ]
  in
  Alcotest.(check bool) "cross-file drop found" true
    (List.exists
       (fun f ->
         f.Finding.rule = "capability-drop"
         && f.Finding.chain
            = [
                "Jp_lint_fixtures.Bad_drop_cross.caller";
                "Jp_lint_fixtures.Bad_capability_drop.callee";
              ])
       fs);
  (* alone, the cross-file caller is silent: the callee is unknown *)
  Alcotest.(check int) "unresolvable callee stays silent" 0
    (count "capability-drop" (lint "bad_drop_cross"))

let test_drop_suppressed () =
  let fs = lint "suppressed_capability_drop" in
  let drops = List.filter (fun f -> f.Finding.rule = "capability-drop") fs in
  Alcotest.(check bool) "drop found but suppressed" true
    (drops <> []
    && List.for_all (fun f -> f.Finding.suppressed <> None) drops);
  Alcotest.(check int) "the allow is live, not stale" 0
    (count Ctx.stale_suppression_rule fs)

let test_poll_suppressed () =
  let fs = lint "suppressed_missing_poll" in
  let polls = List.filter (fun f -> f.Finding.rule = "missing-poll") fs in
  Alcotest.(check bool) "binding-level allow suppresses" true
    (polls <> []
    && List.for_all (fun f -> f.Finding.suppressed <> None) polls);
  Alcotest.(check int) "the allow is live, not stale" 0
    (count Ctx.stale_suppression_rule fs)

let test_stale_suppression () =
  let fs = lint "stale_suppression" in
  Alcotest.(check int) "exactly the dead allow flagged" 1
    (count Ctx.stale_suppression_rule fs);
  Alcotest.(check bool) "live allows never flagged" false
    (List.exists
       (fun f -> f.Finding.rule = Ctx.stale_suppression_rule)
       (lint "suppressed_random"))

(* unused-export: the exporting fixture is linted as lib/, its user as
   whichever tree the case names. *)
let lint_exports ~user_kind name =
  Driver.lint_cmts ~selection
    [
      (Some (Ctx.Lib "core"), fixture_cmt name);
      (Some user_kind, fixture_cmt "unused_export_user");
    ]

let export_findings fs =
  List.filter_map
    (fun f ->
      if f.Finding.rule = "unused-export" && f.Finding.suppressed = None then
        Some f.Finding.message
      else None)
    fs

let test_unused_flagged () =
  match export_findings (lint_exports ~user_kind:Ctx.Bin "bad_unused_export") with
  | [ m ] ->
    Alcotest.(check bool) "dead export named" true
      (Util.contains_substring m "Bad_unused_export.dead"
      && Util.contains_substring m "no other unit")
  | ms -> Alcotest.failf "want one finding, got %d" (List.length ms)

let test_test_only_flagged () =
  let ms = export_findings (lint_exports ~user_kind:Ctx.Test "bad_unused_export") in
  Alcotest.(check int) "dead and test-only both flagged" 2 (List.length ms);
  Alcotest.(check bool) "test-only export named" true
    (List.exists
       (fun m ->
         Util.contains_substring m "Bad_unused_export.tested"
         && Util.contains_substring m "only test/")
       ms)

let test_consumer_keeps_live () =
  List.iter
    (fun (what, kind) ->
      Alcotest.(check (list string))
        (what ^ " use keeps the export live")
        []
        (export_findings (lint_exports ~user_kind:kind "ok_unused_export")))
    [
      ("bin/", Ctx.classify "bin/joinproj_cli.ml");
      ("examples/", Ctx.classify "examples/quickstart.ml");
      ("perfbench/", Ctx.classify "perfbench/main.ml");
    ];
  Alcotest.(check int) "alone, the export is flagged" 1
    (count "unused-export" (lint "ok_unused_export"))

let test_unused_suppressed () =
  let fs = lint_exports ~user_kind:Ctx.Test "suppressed_unused_export" in
  let hits = List.filter (fun f -> f.Finding.rule = "unused-export") fs in
  Alcotest.(check bool) "test-only finding present but suppressed" true
    (hits <> [] && List.for_all (fun f -> f.Finding.suppressed <> None) hits);
  Alcotest.(check int) "the allow is live, not stale" 0
    (count Ctx.stale_suppression_rule fs);
  (* once a bin/ use makes the export live, the allow on the val is stale
     and reported against the interface *)
  match
    List.filter
      (fun f -> f.Finding.rule = Ctx.stale_suppression_rule)
      (lint_exports ~user_kind:Ctx.Bin "suppressed_unused_export")
  with
  | [ f ] ->
    Alcotest.(check bool) "stale allow names the .mli" true
      (Filename.check_suffix f.Finding.file "suppressed_unused_export.mli")
  | fs -> Alcotest.failf "want one stale allow, got %d" (List.length fs)

let test_json_v2 () =
  let js = Report.render_json (lint "bad_capability_drop") in
  Alcotest.(check bool) "schema v2" true
    (Util.contains_substring js "\"version\":2");
  Alcotest.(check bool) "chain evidence serialized" true
    (Util.contains_substring js "\"chain\":[")

let test_ordering () =
  let mk rule file line col =
    Finding.v ~rule ~file ~line ~col ~message:"m" ~hint:"h" ~suppressed:None ()
  in
  let a = mk "b-rule" "a.ml" 3 1 in
  let b = mk "a-rule" "a.ml" 3 1 in
  let c = mk "a-rule" "a.ml" 2 9 in
  let d = mk "a-rule" "b.ml" 1 0 in
  let key f =
    Printf.sprintf "%s:%d:%d:%s" f.Finding.file f.Finding.line f.Finding.col
      f.Finding.rule
  in
  Alcotest.(check (list string))
    "(file, line, col, rule) order"
    [ "a.ml:2:9:a-rule"; "a.ml:3:1:a-rule"; "a.ml:3:1:b-rule"; "b.ml:1:0:a-rule" ]
    (List.map key (List.stable_sort Finding.compare_by_position [ a; b; d; c ]))

let fires rule name =
  Alcotest.test_case
    (Printf.sprintf "%s fires" rule)
    `Quick (check_fires rule name)

let clean rule name =
  Alcotest.test_case
    (Printf.sprintf "%s negative" rule)
    `Quick (check_clean rule name)

let suite =
  [
    fires "poly-compare" "bad_poly_compare";
    clean "poly-compare" "ok_poly_compare";
    Alcotest.test_case "poly-compare fires at a type variable" `Quick
      (check_fires "poly-compare" "bad_poly_compare_tvar");
    Alcotest.test_case "poly-compare negative at int and a variant" `Quick
      (check_clean "poly-compare" "ok_poly_compare_tvar");
    fires "random" "bad_random";
    clean "random" "ok_random";
    fires "domain-unsafe-global" "bad_global";
    clean "domain-unsafe-global" "ok_global";
    fires "hot-poll" "bad_hot_poll";
    clean "hot-poll" "ok_hot_poll";
    Alcotest.test_case "hot-poll fires on per-word tile traffic" `Quick
      (check_fires "hot-poll" "bad_tile_poll");
    Alcotest.test_case "hot-poll negative on per-tile cadence" `Quick
      (check_clean "hot-poll" "ok_tile_poll");
    Alcotest.test_case "hot-poll fires on per-tuple updates" `Quick
      (fun () ->
        (* observe, add and set: one finding each *)
        Alcotest.(check int) "hot-poll findings" 3
          (count "hot-poll" (lint "bad_metrics_poll")));
    Alcotest.test_case "hot-poll negative on per-row updates" `Quick
      (check_clean "hot-poll" "ok_metrics_poll");
    fires "adj-mutation" "bad_adj_mutation";
    clean "adj-mutation" "ok_adj_mutation";
    fires "missing-mli" "bad_no_mli";
    clean "missing-mli" "ok_with_mli";
    fires "no-open" "bad_open";
    clean "no-open" "ok_open";
    fires "hashtbl-dedup" "bad_hashtbl_dedup";
    clean "hashtbl-dedup" "ok_hashtbl_dedup";
    fires "capability-drop" "bad_capability_drop";
    clean "capability-drop" "ok_capability_drop";
    fires "missing-poll" "bad_missing_poll";
    clean "missing-poll" "ok_missing_poll";
    fires "wall-clock" "bad_wall_clock";
    clean "wall-clock" "ok_wall_clock";
    Alcotest.test_case "capability-drop carries chain evidence" `Quick
      test_drop_chain;
    Alcotest.test_case "capability-drop across files" `Quick
      test_cross_file_chain;
    Alcotest.test_case "capability-drop suppression" `Quick test_drop_suppressed;
    Alcotest.test_case "missing-poll binding suppression" `Quick
      test_poll_suppressed;
    Alcotest.test_case "unused-export flags an unreferenced export" `Quick
      test_unused_flagged;
    Alcotest.test_case "unused-export flags a test-only export" `Quick
      test_test_only_flagged;
    Alcotest.test_case "unused-export negative on bin/examples/perfbench uses"
      `Quick test_consumer_keeps_live;
    Alcotest.test_case "unused-export suppression" `Quick test_unused_suppressed;
    Alcotest.test_case "stale suppression flagged" `Quick test_stale_suppression;
    Alcotest.test_case "json schema v2 with chains" `Quick test_json_v2;
    Alcotest.test_case "finding order deterministic" `Quick test_ordering;
    Alcotest.test_case "suppression recorded, not blocking" `Quick
      test_suppression;
    Alcotest.test_case "malformed suppression flagged" `Quick
      test_bad_suppression;
    Alcotest.test_case "engine-only rules scoped by kind" `Quick
      test_kind_scoping;
    Alcotest.test_case "multiple sites all reported" `Quick test_counts;
  ]
