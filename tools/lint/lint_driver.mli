(** The driver: locate [.cmt] files under the build tree, load each one
    with [Cmt_format], and evaluate the selected rules in two passes.

    Pass 1 walks each file's Typedtree once, running the intra-procedural
    rules and harvesting the signature/callgraph facts
    ({!Lint_callgraph}) from the same traversal.  Pass 2 evaluates the
    interprocedural rules over the merged whole-program call graph, then
    sweeps for stale suppressions ([@jp.lint.allow] entries that
    suppressed nothing).  Findings are emitted sorted by
    (file, line, col, rule) — the pinned deterministic order.

    Names in the tree are {e resolved} (the typechecker already did the
    work), so matching is on canonical paths, not source text.  Dune's
    generated wrapper modules ([.ml-gen]) and the deliberately-violating
    [test/lint_fixtures/] sources are skipped unless a caller forces a
    [kind] override. *)

val default_excludes : string list
(** Source-path substrings skipped by default ([test/lint_fixtures/]). *)

val lint_cmt :
  ?kind:Lint_ctx.kind ->
  ?excludes:string list ->
  selection:Lint_registry.selection ->
  string ->
  Lint_finding.t list
(** Lint one [.cmt] file (full pipeline on a one-file program).
    [?kind] overrides source-path classification (used by the fixture
    tests to lint [test/] sources as [Lib]); when given, the exclude
    list is bypassed.  Unreadable or interface-only cmts yield no
    findings. *)

val lint_cmts :
  ?excludes:string list ->
  selection:Lint_registry.selection ->
  (Lint_ctx.kind option * string) list ->
  Lint_finding.t list
(** Lint several [.cmt] files as one program — interprocedural edges
    and export uses resolve across all of them.  Each file carries its
    own optional kind override, as in {!lint_cmt}, so a fixture test can
    place an exporting module in [lib/] and its user in [test/]. *)

val lint_dirs :
  ?excludes:string list ->
  selection:Lint_registry.selection ->
  string list ->
  Lint_finding.t list
(** Recursively lint every [.cmt] under the given directories as one
    program; findings are sorted by (file, line, col, rule). *)
