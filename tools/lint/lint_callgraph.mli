(** Interprocedural layer of the lint: per-function capability
    signatures and a resolved call graph, harvested from the same single
    typedtree traversal the intra rules ride ({!Lint_walk.hooks}), then
    evaluated by the global rules ({!Lint_global}).

    The harvest records, for every structure-level function binding:
    which capability hooks it accepts ([?guard]/[?cancel]/[?cache]/
    [?memo]/[?tile]), every call it makes (with the capabilities
    supplied, the capabilities the compiler had to fill with a ghost
    [None] because the site omitted them, and whether the site sits
    inside a loop), and whether it polls cancellation or checkpoints a
    guard directly.  Function names are canonical dotted paths
    ([Joinproj.Two_path.project]) so edges resolve across libraries.

    The same walk records every identifier a unit references (aliases
    resolved), and the driver adds the [val]s of each [lib/] interface,
    so the [unused-export] rule can match exports against their uses
    across every linted tree. *)

type cap = Guard | Cancel | Cache | Memo | Tile

val all_caps : cap list
(** In fixed emission order (stable reports). *)

val cap_label : cap -> string
(** The argument label, e.g. [Cancel] → ["cancel"]. *)

val cap_of_label : string -> cap option

type call = {
  c_callee : string;  (** normalized callee path (bare if intra-file) *)
  c_supplied : cap list;  (** capabilities passed at the site *)
  c_dropped : cap list;
      (** capabilities the compiler eliminated with a ghost [None] —
          i.e. omitted although the callee accepts them; an explicit
          [?cap:None] counts as supplied, not dropped *)
  c_loc : Location.t;
  c_in_loop : bool;  (** site sits at loop depth >= 1 *)
  c_allow : Lint_ctx.allow option;
      (** [capability-drop] suppression active at the site, unmarked *)
}

type fn = {
  f_name : string;  (** canonical dotted path *)
  f_file : string;
  f_kind : Lint_ctx.kind;
  f_loc : Location.t;
  f_caps : cap list;  (** capability hooks the function accepts *)
  f_allow : Lint_ctx.allow option;
      (** [missing-poll] suppression on the binding, unmarked *)
  mutable f_calls : call list;  (** source order *)
  mutable f_has_loop : bool;
  mutable f_cancel_poll : bool;  (** calls [Cancel.is_cancelled]/[check] *)
  mutable f_guard_poll : bool;
      (** calls [Guard.check_budget]/[check_estimate] *)
}

type export = {
  e_name : string;  (** canonical dotted path, e.g. [Jp_util.Rng.int] *)
  e_unit : string;  (** the compilation unit that declares it *)
  e_file : string;  (** the [.mli] source *)
  e_loc : Location.t;
  e_allow : Lint_ctx.allow option;
      (** [unused-export] suppression on the [val], unmarked *)
}

type use = {
  u_unit : string;  (** referencing compilation unit *)
  u_kind : Lint_ctx.kind;
  u_file : string;
}

type unit_facts = {
  uf_unit : string;  (** demangled unit name, e.g. [Jp_util.Rng] *)
  uf_file : string;
  uf_kind : Lint_ctx.kind;
  uf_fns : fn list;
  uf_refs : string list;  (** distinct canonical names referenced *)
  uf_exports : export list;  (** empty unless a [lib/] interface was read *)
}

type program = {
  p_fns : (string, fn) Hashtbl.t;
  p_order : fn list;  (** harvest order — deterministic iteration *)
  p_exports : export list;  (** harvest order *)
  p_uses : (string, use) Hashtbl.t;  (** name → one entry per unit *)
}

val build : unit_facts list -> program

val uses : program -> string -> use list
(** Every unit that references the canonical name. *)

val resolve : program -> caller:fn -> string -> fn option
(** Look a callee name up: canonical paths directly, bare intra-file
    names qualified against the caller's module path (innermost scope
    first). *)

val cancel_polls : string list
(** Canonical names that count as a cancellation poll. *)

val guard_polls : string list
(** Canonical names that count as a guard checkpoint. *)

val reaches_poll : program -> cap -> fn -> bool
(** Does the function poll the capability itself, or reach a known
    function that does through any call chain?  Only meaningful for
    {!Cancel} and {!Guard}; always [false] for the others. *)

type harvester = {
  h_hooks : Lint_walk.hooks;
  h_fns : unit -> fn list;  (** harvested nodes, file order *)
  h_refs : unit -> string list;
      (** distinct normalized identifiers of the file; bare intra-file
          names stay bare *)
}

val harvester : modname:string -> Lint_ctx.t -> harvester
(** Fresh harvester for one file; [modname] is the demangled [.cmt]
    module name used to qualify the file's bindings. *)

val exports :
  unit_name:string ->
  file:string ->
  Lint_ctx.t ->
  Typedtree.signature ->
  export list
(** The [val]s of an interface, nested [module M : sig ... end]
    signatures included, in source order.  Allows on a [val] register
    with the context, so the stale-suppression sweep covers them. *)
