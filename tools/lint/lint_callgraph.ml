module Ctx = Lint_ctx

(* ------------------------------------------------------------------ *)
(* capabilities                                                        *)

type cap = Guard | Cancel | Cache | Memo | Tile

let all_caps = [ Guard; Cancel; Cache; Memo; Tile ]

let cap_label = function
  | Guard -> "guard"
  | Cancel -> "cancel"
  | Cache -> "cache"
  | Memo -> "memo"
  | Tile -> "tile"

let cap_of_label = function
  | "guard" -> Some Guard
  | "cancel" -> Some Cancel
  | "cache" -> Some Cache
  | "memo" -> Some Memo
  | "tile" -> Some Tile
  | _ -> None

(* ------------------------------------------------------------------ *)
(* program representation                                              *)

type call = {
  c_callee : string;
  c_supplied : cap list;
  c_dropped : cap list;
  c_loc : Location.t;
  c_in_loop : bool;
  c_allow : Ctx.allow option;
}

type fn = {
  f_name : string;
  f_file : string;
  f_kind : Ctx.kind;
  f_loc : Location.t;
  f_caps : cap list;
  f_allow : Ctx.allow option;
  mutable f_calls : call list;
  mutable f_has_loop : bool;
  mutable f_cancel_poll : bool;
  mutable f_guard_poll : bool;
}

type export = {
  e_name : string;
  e_unit : string;
  e_file : string;
  e_loc : Location.t;
  e_allow : Ctx.allow option;
}

type use = { u_unit : string; u_kind : Ctx.kind; u_file : string }

type unit_facts = {
  uf_unit : string;
  uf_file : string;
  uf_kind : Ctx.kind;
  uf_fns : fn list;
  uf_refs : string list;
  uf_exports : export list;
}

type program = {
  p_fns : (string, fn) Hashtbl.t;
  p_order : fn list;
  p_exports : export list;
  p_uses : (string, use) Hashtbl.t;
}

let build units =
  let fns = List.concat_map (fun u -> u.uf_fns) units in
  let tbl = Hashtbl.create 512 in
  List.iter (fun f -> Hashtbl.replace tbl f.f_name f) fns;
  let uses = Hashtbl.create 4096 in
  List.iter
    (fun u ->
      List.iter
        (fun name ->
          Hashtbl.add uses name
            { u_unit = u.uf_unit; u_kind = u.uf_kind; u_file = u.uf_file })
        u.uf_refs)
    units;
  {
    p_fns = tbl;
    p_order = fns;
    p_exports = List.concat_map (fun u -> u.uf_exports) units;
    p_uses = uses;
  }

let uses p name = Hashtbl.find_all p.p_uses name

(* Resolve a callee name recorded at a call site.  Cross-module calls
   are already canonical (demangled, alias-expanded); bare intra-file
   names are qualified against the caller's module path, trying the
   innermost prefix first — mirroring OCaml's scoping. *)
let resolve p ~(caller : fn) name =
  match Hashtbl.find_opt p.p_fns name with
  | Some f -> Some f
  | None ->
    let rec prefixes acc = function
      | [] -> List.rev acc
      | _ :: tl as segs ->
        prefixes (String.concat "." (List.rev segs) :: acc) tl
    in
    let segs = List.rev (String.split_on_char '.' caller.f_name) in
    let scopes = match segs with [] -> [] | _ :: enclosing -> prefixes [] enclosing in
    List.find_map
      (fun scope -> Hashtbl.find_opt p.p_fns (scope ^ "." ^ name))
      scopes

(* ------------------------------------------------------------------ *)
(* polls and reachability                                              *)

let cancel_polls =
  [
    "Jp_util.Cancel.is_cancelled";
    "Jp_util.Cancel.check";
    "Jp_util.Cancel.check_opt";
  ]

let guard_polls =
  [ "Jp_adaptive.Guard.check_budget"; "Jp_adaptive.Guard.check_estimate" ]

let direct_poll cap f =
  match cap with
  | Cancel -> f.f_cancel_poll
  | Guard -> f.f_guard_poll
  | Cache | Memo | Tile -> false

(* Does [f] poll [cap] itself, or reach — through any chain of calls to
   known functions — one that does?  Cycle-safe depth-first search; the
   graph is small enough that a per-query visited set is cheap. *)
let reaches_poll p cap f =
  let seen = Hashtbl.create 32 in
  let rec go f =
    if Hashtbl.mem seen f.f_name then false
    else begin
      Hashtbl.add seen f.f_name ();
      direct_poll cap f
      || List.exists
           (fun c ->
             match resolve p ~caller:f c.c_callee with
             | Some g -> go g
             | None -> false)
           f.f_calls
    end
  in
  go f

(* ------------------------------------------------------------------ *)
(* harvest                                                             *)

(* The compiler fills an omitted-and-eliminated optional argument with a
   ghost [None] construct (location = none).  An explicit [?cap:None] at
   the call site has a real location and counts as supplied — that is a
   deliberate choice, not a silent drop. *)
let is_ghost_none (e : Typedtree.expression) =
  e.exp_loc.Location.loc_ghost
  &&
  match e.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "None"; _ }, []) -> true
  | _ -> false

(* Curried parameter labels of a binding's expression: one
   [Texp_function] per parameter in 5.1; recursion follows single-case
   bodies (the curry spine) and stops at real pattern matches. *)
let rec param_labels acc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { arg_label; cases = [ c ]; _ } ->
    param_labels (arg_label :: acc) c.Typedtree.c_rhs
  | Texp_function { arg_label; _ } -> List.rev (arg_label :: acc)
  | _ -> List.rev acc

let caps_of_labels labels =
  List.filter_map
    (function
      | Asttypes.Optional l -> cap_of_label l
      | Asttypes.Labelled _ | Asttypes.Nolabel -> None)
    labels

let rec pattern_var : type k. k Typedtree.general_pattern -> string option =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> Some (Ident.name id)
  | Tpat_alias (p, _, _) -> pattern_var p
  | _ -> None

type harvester = {
  h_hooks : Lint_walk.hooks;
  h_fns : unit -> fn list;
  h_refs : unit -> string list;
}

let drop_rule = "capability-drop"

let poll_rule = "missing-poll"

let harvester ~modname (ctx : Ctx.t) =
  let fns = ref [] in
  let refs = Hashtbl.create 256 in
  let stack = ref [] in
  let modpath = ref [] in
  let on_binding (vb : Typedtree.value_binding) k =
    match !stack with
    | _ :: _ ->
      (* A structure-level binding inside a [let module] expression:
         its contents belong to the enclosing function node. *)
      k ()
    | [] -> (
      let labels = param_labels [] vb.vb_expr in
      match (pattern_var vb.vb_pat, labels) with
      | Some id, _ :: _ ->
        let name =
          String.concat "." ((modname :: List.rev !modpath) @ [ id ])
        in
        let f =
          {
            f_name = name;
            f_file = ctx.Ctx.source;
            f_kind = ctx.Ctx.kind;
            f_loc = vb.vb_loc;
            f_caps = caps_of_labels labels;
            f_allow = Ctx.find_allow ctx poll_rule;
            f_calls = [];
            f_has_loop = false;
            f_cancel_poll = false;
            f_guard_poll = false;
          }
        in
        stack := f :: !stack;
        Fun.protect ~finally:(fun () -> stack := List.tl !stack) k;
        f.f_calls <- List.rev f.f_calls;
        fns := f :: !fns
      | _ -> k ())
  in
  let on_module name k =
    modpath := name :: !modpath;
    Fun.protect ~finally:(fun () -> modpath := List.tl !modpath) k
  in
  let on_expr (e : Typedtree.expression) =
    (match Ctx.ident_of_expr ctx e with
    | Some n -> Hashtbl.replace refs n ()
    | None -> ());
    match !stack with
    | [] -> ()
    | f :: _ -> (
      if ctx.Ctx.loop_depth >= 1 then f.f_has_loop <- true;
      match e.exp_desc with
      | Texp_ident _ -> (
        match Ctx.ident_of_expr ctx e with
        | Some n when List.mem n cancel_polls -> f.f_cancel_poll <- true
        | Some n when List.mem n guard_polls -> f.f_guard_poll <- true
        | _ -> ())
      | Texp_apply (fn_e, args) -> (
        match Ctx.ident_of_expr ctx fn_e with
        | None -> ()
        | Some callee ->
          let supplied = ref [] and dropped = ref [] in
          List.iter
            (fun (label, arg) ->
              match label with
              | Asttypes.Optional l -> (
                match (cap_of_label l, arg) with
                | Some cap, Some a ->
                  if is_ghost_none a then dropped := cap :: !dropped
                  else supplied := cap :: !supplied
                | _, None | None, _ -> ())
              | Asttypes.Labelled _ | Asttypes.Nolabel -> ())
            args;
          f.f_calls <-
            {
              c_callee = callee;
              c_supplied = List.rev !supplied;
              c_dropped = List.rev !dropped;
              c_loc = e.exp_loc;
              c_in_loop = ctx.Ctx.loop_depth >= 1;
              c_allow = Ctx.find_allow ctx drop_rule;
            }
            :: f.f_calls)
      | _ -> ())
  in
  {
    h_hooks = { Lint_walk.on_binding; on_module; on_expr };
    h_fns = (fun () -> List.rev !fns);
    h_refs = (fun () -> Hashtbl.fold (fun n () acc -> n :: acc) refs []);
  }

(* ------------------------------------------------------------------ *)
(* exports                                                             *)

let unused_rule = "unused-export"

(* Every [val] of an interface, nested signatures included, named by its
   canonical dotted path.  A [[@@jp.lint.allow "unused-export" ...]] on
   the [val] is registered with the context (so the stale sweep sees
   it) and captured unmarked, like the other interprocedural allows. *)
let exports ~unit_name ~file (ctx : Ctx.t) (sg : Typedtree.signature) =
  let rec items prefix acc (sg : Typedtree.signature) =
    List.fold_left
      (fun acc (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
          let allow =
            List.find_opt
              (fun (a : Ctx.allow) -> a.Ctx.a_rule = unused_rule)
              (Ctx.allows_of_attributes ctx vd.val_attributes)
          in
          {
            e_name = prefix ^ "." ^ Ident.name vd.val_id;
            e_unit = unit_name;
            e_file = file;
            e_loc = vd.val_loc;
            e_allow = allow;
          }
          :: acc
        | Tsig_module
            { md_id = Some id; md_type = { mty_desc = Tmty_signature sub; _ }; _ }
          ->
          items (prefix ^ "." ^ Ident.name id) acc sub
        | _ -> acc)
      acc sg.sig_items
  in
  List.rev (items unit_name [] sg)
