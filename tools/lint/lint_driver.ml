module Ctx = Lint_ctx
module F = Lint_finding

(* Deliberate rule violations compiled as test fixtures; the repo-wide
   run must not trip over them (the fixture tests lint them explicitly
   with a kind override). *)
let default_excludes = [ "test/lint_fixtures/" ]

let skip_source ~excludes source =
  String.length source < 1
  || Filename.check_suffix source ".ml-gen"
  || Filename.check_suffix source ".mli"
  || List.exists (fun ex -> Lint_util.contains_substring source ex) excludes

(* ------------------------------------------------------------------ *)
(* pass 1: per-file walk — intra findings + signature/callgraph harvest *)

type filed = {
  fd_ctxs : Ctx.t list;  (** the implementation's, then the interface's *)
  fd_facts : Lint_callgraph.unit_facts;
}

(* The [val]s of a [lib/] unit's interface, read from the [.cmti] beside
   its [.cmt], with a context of the interface's own so its allows and
   malformed attributes report against the [.mli]; other trees export
   nothing the [unused-export] rule checks. *)
let read_exports ~kind ~modname cmti =
  match kind with
  | Ctx.Lib _ -> (
    match Cmt_format.read_cmt cmti with
    | exception _ -> None
    | { cmt_annots = Interface sg; cmt_sourcefile; _ } ->
      let source = Option.value cmt_sourcefile ~default:cmti in
      let ctx = Ctx.create ~source ~kind ~has_mli:true in
      Some (ctx, Lint_callgraph.exports ~unit_name:modname ~file:source ctx sg)
    | _ -> None)
  | Ctx.Bin | Ctx.Bench | Ctx.Test | Ctx.Tools | Ctx.Other -> None

let walk_structure ~source ~kind ~cmti ~modname
    ~(selection : Lint_registry.selection) str =
  let has_mli = Sys.file_exists cmti in
  let ctx = Ctx.create ~source ~kind ~has_mli in
  Lint_walk.collect_aliases ctx str;
  let rules =
    List.filter (fun (r : Lint_rule.t) -> r.applies kind) selection.intra
  in
  let h = Lint_callgraph.harvester ~modname ctx in
  Lint_walk.walk ~hooks:h.h_hooks ctx rules str;
  let iface = if has_mli then read_exports ~kind ~modname cmti else None in
  {
    fd_ctxs = ctx :: Option.to_list (Option.map fst iface);
    fd_facts =
      {
        uf_unit = modname;
        uf_file = source;
        uf_kind = kind;
        uf_fns = h.h_fns ();
        uf_refs = h.h_refs ();
        uf_exports = (match iface with Some (_, es) -> es | None -> []);
      };
  }

let walk_cmt ?kind ~excludes ~selection path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | info -> (
    match info.cmt_annots with
    | Implementation str ->
      let source = match info.cmt_sourcefile with Some s -> s | None -> path in
      (* An explicit kind override (fixture tests) bypasses the skip list. *)
      let skip =
        match kind with Some _ -> false | None -> skip_source ~excludes source
      in
      if skip then None
      else
        let kind = match kind with Some k -> k | None -> Ctx.classify source in
        let cmti = Filename.remove_extension path ^ ".cmti" in
        let modname = Ctx.demangle info.cmt_modname in
        Some (walk_structure ~source ~kind ~cmti ~modname ~selection str)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* pass 2: whole-program rules; pass 3: stale-suppression sweep        *)

let stale_sweep ~(selection : Lint_registry.selection) fileds =
  if not (List.mem Ctx.stale_suppression_rule selection.meta) then []
  else
    let enabled rule =
      List.exists (fun (r : Lint_rule.t) -> r.id = rule) selection.intra
      || List.exists (fun (g : Lint_global.t) -> g.gid = rule) selection.interproc
    in
    List.concat_map
      (fun (ctx : Ctx.t) ->
        List.filter_map
          (fun (a : Ctx.allow) ->
            if a.a_used || not (enabled a.a_rule) then None
            else
              let pos = a.a_loc.Location.loc_start in
              Some
                (F.v ~rule:Ctx.stale_suppression_rule ~file:ctx.Ctx.source
                   ~line:pos.Lexing.pos_lnum
                   ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
                   ~message:
                     (Printf.sprintf
                        "[@%s \"%s\"] suppresses nothing on this run"
                        Ctx.allow_attr a.a_rule)
                   ~hint:
                     "the justified violation is gone — delete the attribute \
                      (or fix the rule id) so suppressions stay honest"
                   ~suppressed:None ()))
          ctx.Ctx.allows)
      (List.concat_map (fun fd -> fd.fd_ctxs) fileds)

let finish ~(selection : Lint_registry.selection) fileds =
  let program = Lint_callgraph.build (List.map (fun fd -> fd.fd_facts) fileds) in
  let interproc =
    List.concat_map
      (fun (g : Lint_global.t) -> g.grun program)
      selection.interproc
  in
  (* Interprocedural suppressions are marked used above, so the stale
     sweep must run after. *)
  let stale = stale_sweep ~selection fileds in
  let intra =
    List.concat_map
      (fun fd -> List.concat_map (fun (c : Ctx.t) -> List.rev c.Ctx.findings) fd.fd_ctxs)
      fileds
  in
  let keep (f : F.t) =
    if f.rule = Ctx.bad_suppression_rule then
      List.mem Ctx.bad_suppression_rule selection.meta
    else true
  in
  List.stable_sort F.compare_by_position
    (List.filter keep (intra @ interproc @ stale))

(* ------------------------------------------------------------------ *)
(* entry points                                                        *)

let lint_cmts ?(excludes = default_excludes) ~selection files =
  let fileds =
    List.filter_map
      (fun (kind, p) -> walk_cmt ?kind ~excludes ~selection p)
      files
  in
  finish ~selection fileds

let lint_cmt ?kind ?(excludes = default_excludes) ~selection path =
  lint_cmts ~excludes ~selection [ (kind, path) ]

let rec find_cmts acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then find_cmts acc path
        else if Filename.check_suffix path ".cmt" then path :: acc
        else acc)
      acc entries

let lint_dirs ?(excludes = default_excludes) ~selection dirs =
  let cmts = List.sort String.compare (List.fold_left find_cmts [] dirs) in
  lint_cmts ~excludes ~selection (List.map (fun p -> (None, p)) cmts)
