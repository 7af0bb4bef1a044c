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

type program = {
  p_fns : (string, fn) Hashtbl.t;
  p_order : fn list;
}

let build fns =
  let tbl = Hashtbl.create 512 in
  List.iter (fun f -> Hashtbl.replace tbl f.f_name f) fns;
  { p_fns = tbl; p_order = fns }

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
}

let drop_rule = "capability-drop"

let poll_rule = "missing-poll"

let harvester ~modname (ctx : Ctx.t) =
  let fns = ref [] in
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
  }
