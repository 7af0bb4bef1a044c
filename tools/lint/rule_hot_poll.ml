let id = "hot-poll"

(* Cancellation polls, instrument updates and cache traffic are priced
   for chunk/phase granularity; at loop depth >= 2 they are per-tuple. *)
let poll_functions =
  [
    "Jp_util.Cancel.is_cancelled";
    "Jp_util.Cancel.check";
    "Jp_util.Cancel.check_opt";
    "Jp_obs.incr";
    "Jp_obs.add";
    "Jp_obs.set";
    "Jp_obs.observe";
    "Jp_obs.snapshot";
    "Jp_obs.span";
    "Jp_obs.timed_span";
    "Jp_obs.instant";
    "Jp_cache.find";
    "Jp_cache.put";
    "Jp_cache.offer";
    "Jp_cache.find_or_build";
    "Jp_cache.binding_find";
    "Jp_cache.binding_publish";
  ]

let rule =
  Lint_rule.v ~id
    ~doc:
      "no cancel polls / Jp_obs instrument updates / cache traffic at loop \
       depth >= 2 (chunk granularity, never per tuple)"
    ~applies:Lint_rule.lib_only
    ~on_expr:(fun ctx e ->
      if ctx.Lint_ctx.loop_depth >= 2 then
        match e.Typedtree.exp_desc with
        | Texp_apply (fn, _) -> (
          match Lint_ctx.ident_of_expr ctx fn with
          | Some name when List.mem name poll_functions ->
            Lint_ctx.emit ctx ~rule:id ~loc:e.exp_loc
              ~message:
                (Printf.sprintf "%s inside a doubly-nested loop (per-tuple poll)"
                   name)
              ~hint:
                "poll once per chunk or phase: hoist to the outer loop, or \
                 accumulate locally and publish a bulk delta at the end"
          | _ -> ())
        | _ -> ())
    ()
