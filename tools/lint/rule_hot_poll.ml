let id = "hot-poll"

(* Cancellation polls, observability bumps, cache traffic and metric
   recordings are priced for chunk/phase granularity; at loop depth >= 2
   they are per-tuple.  Jp_metrics.Local.observe is deliberately absent:
   accumulating into a domain-local histogram inside the loop and
   publishing once at the boundary is the in-loop form the rule allows
   (no lib/ loop records a histogram value yet). *)
let poll_functions =
  [
    "Jp_util.Cancel.is_cancelled";
    "Jp_util.Cancel.check";
    "Jp_util.Cancel.check_opt";
    "Jp_obs.incr";
    "Jp_obs.add";
    "Jp_obs.span";
    "Jp_obs.timed_span";
    "Jp_obs.instant";
    "Jp_cache.find";
    "Jp_cache.put";
    "Jp_cache.offer";
    "Jp_cache.find_or_build";
    "Jp_cache.binding_find";
    "Jp_cache.binding_publish";
    "Jp_metrics.observe";
    "Jp_metrics.set_gauge";
    "Jp_metrics.add_gauge";
    "Jp_metrics.snapshot";
    "Jp_metrics.Local.publish";
  ]

let rule =
  Lint_rule.v ~id
    ~doc:
      "no cancel polls / Jp_obs counter bumps / cache traffic at loop depth \
       >= 2 (chunk granularity, never per tuple)"
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
