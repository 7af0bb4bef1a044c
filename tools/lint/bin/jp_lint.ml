(* jp_lint — compiler-libs invariant checker for the joinproj repo.

   Reads the .cmt files dune produced (run via `dune build @lint`, which
   depends on @check so they exist), walks each Typedtree with resolved
   names, and enforces the repo rules CLAUDE.md states in prose.  Intra
   rules run during the walk; the same traversal harvests per-function
   capability signatures and call edges, and the interprocedural rules
   (capability-drop, missing-poll, unused-export) evaluate once over the
   merged whole-program call graph.  Exit status: 0 clean, 1 unsuppressed
   findings, 2 usage error. *)

module Driver = Jp_lint_core.Lint_driver
module Registry = Jp_lint_core.Lint_registry
module Report = Jp_lint_core.Lint_report

(* Every tree that consumes lib/: unused-export counts a use from any of
   them, so the default run and the root dune alias walk all seven. *)
let default_dirs = [ "lib"; "bin"; "bench"; "test"; "tools"; "examples"; "perfbench" ]

let usage =
  Printf.sprintf
    "jp_lint [options] [dirs...]\n\
     Lints every .cmt under dirs (default: %s,\n\
     resolved relative to the dune build context this runs in).\n\n\
     \  --json               emit the machine-readable report (schema v2)\n\
     \  --baseline FILE      demote findings listed in FILE to warnings\n\
     \  --rules IDS          comma-separated rule ids to run (default all)\n\
     \  --disable IDS        comma-separated rule ids to skip\n\
     \  --exclude SUBSTR     skip sources whose path contains SUBSTR (repeatable)\n\
     \  --show-suppressed    include [@jp.lint.allow]-suppressed findings in text output\n\
     \  --list-rules         print the rule table and exit\n"
    (String.concat " " default_dirs)

let die msg =
  prerr_string msg;
  exit 2

let split_ids s = List.filter (fun x -> x <> "") (String.split_on_char ',' s)

let () =
  let json = ref false in
  let baseline = ref None in
  let only = ref [] in
  let disable = ref [] in
  let excludes = ref Driver.default_excludes in
  let show_suppressed = ref false in
  let dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--baseline" :: file :: rest ->
      baseline := Some file;
      parse rest
    | "--rules" :: ids :: rest ->
      only := !only @ split_ids ids;
      parse rest
    | "--disable" :: ids :: rest ->
      disable := !disable @ split_ids ids;
      parse rest
    | "--exclude" :: sub :: rest ->
      excludes := sub :: !excludes;
      parse rest
    | "--show-suppressed" :: rest ->
      show_suppressed := true;
      parse rest
    | "--list-rules" :: _ ->
      List.iter
        (fun (id, doc) -> Printf.printf "%-22s %s\n" id doc)
        Registry.catalog;
      exit 0
    | ("--help" | "-h") :: _ ->
      print_string usage;
      exit 0
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      die (Printf.sprintf "jp_lint: unknown option %s\n%s" arg usage)
    | dir :: rest ->
      dirs := !dirs @ [ dir ];
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match Registry.validate_ids (!only @ !disable) with
  | [] -> ()
  | bad ->
    die
      (Printf.sprintf "jp_lint: unknown rule id(s): %s (try --list-rules)\n"
         (String.concat ", " bad)));
  let dirs =
    match !dirs with [] -> default_dirs | ds -> ds
  in
  (match List.filter (fun d -> not (Sys.file_exists d)) dirs with
  | [] -> ()
  | missing ->
    die
      (Printf.sprintf
         "jp_lint: no such directory: %s (run from the dune build context, or \
          via `dune build @lint`)\n"
         (String.concat ", " missing)));
  let selection = Registry.select ~only:!only ~disable:!disable () in
  let findings = Driver.lint_dirs ~excludes:!excludes ~selection dirs in
  let findings =
    match !baseline with
    | None -> findings
    | Some file -> (
      match Report.load_baseline file with
      | entries -> Report.apply_baseline entries findings
      | exception (Sys_error msg | Failure msg) ->
        die (Printf.sprintf "jp_lint: %s\n" msg))
  in
  if !json then print_endline (Report.render_json findings)
  else print_endline (Report.render_text ~show_suppressed:!show_suppressed findings);
  let blocking = List.filter Jp_lint_core.Lint_finding.is_blocking findings in
  exit (if blocking = [] then 0 else 1)
