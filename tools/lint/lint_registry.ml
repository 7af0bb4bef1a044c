let all =
  [
    Rule_poly_compare.rule;
    Rule_random.rule;
    Rule_domain_safety.rule;
    Rule_hot_poll.rule;
    Rule_adj_mutation.rule;
    Rule_missing_mli.rule;
    Rule_no_open.rule;
    Rule_hashtbl_dedup.rule;
    Rule_wall_clock.rule;
  ]

let global =
  [ Rule_capability_drop.rule; Rule_missing_poll.rule; Rule_unused_export.rule ]

(* Meta rules are emitted by the suppression machinery itself (malformed
   attributes, allows that suppress nothing) rather than by a walk hook;
   they are still selectable/disablable by id. *)
let meta_ids = [ Lint_ctx.bad_suppression_rule; Lint_ctx.stale_suppression_rule ]

let catalog =
  List.map (fun (r : Lint_rule.t) -> (r.id, r.doc)) all
  @ List.map (fun (g : Lint_global.t) -> (g.gid, g.gdoc)) global
  @ [
      ( Lint_ctx.bad_suppression_rule,
        "a [@jp.lint.allow]/[@@jp.domain_safe] without a rule id and \
         non-empty justification is itself a finding" );
      ( Lint_ctx.stale_suppression_rule,
        "a [@jp.lint.allow \"rule\" \"why\"] that suppresses nothing on the \
         current run is itself a finding" );
    ]

let find id = List.find_opt (fun (r : Lint_rule.t) -> r.id = id) all

let known id = List.exists (fun (kid, _) -> kid = id) catalog

let validate_ids ids = List.filter (fun id -> not (known id)) ids

type selection = {
  intra : Lint_rule.t list;
  interproc : Lint_global.t list;
  meta : string list;
}

let selected ~only ~disable id =
  (match only with [] -> true | _ -> List.mem id only)
  && not (List.mem id disable)

let select ?(only = []) ?(disable = []) () =
  {
    intra =
      List.filter (fun (r : Lint_rule.t) -> selected ~only ~disable r.id) all;
    interproc =
      List.filter
        (fun (g : Lint_global.t) -> selected ~only ~disable g.gid)
        global;
    meta = List.filter (selected ~only ~disable) meta_ids;
  }
