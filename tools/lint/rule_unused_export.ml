module G = Lint_callgraph

let id = "unused-export"

(* An export is live when some other unit outside test/ references it:
   bin/, bench/, tools/, examples/, perfbench/ and every lib/ unit
   (a library's main module included) count.  A [val] that only its own
   unit, or only tests, reference is interface surface nothing runs. *)
let live (e : G.export) (u : G.use) =
  u.G.u_unit <> e.G.e_unit
  && match u.G.u_kind with Lint_ctx.Test -> false | _ -> true

let rule =
  Lint_global.v ~id
    ~doc:
      "a lib/ val that no other unit references, or that only test/ \
       references, is dead interface — delete it, make it private, or move \
       it into test/"
    (fun p ->
      List.filter_map
        (fun (e : G.export) ->
          let uses = G.uses p e.G.e_name in
          if List.exists (live e) uses then None
          else
            let tests =
              List.sort_uniq String.compare
                (List.filter_map
                   (fun (u : G.use) ->
                     if u.G.u_unit = e.G.e_unit then None else Some u.G.u_file)
                   uses)
            in
            let message =
              match tests with
              | [] ->
                Printf.sprintf "%s is exported but no other unit references it"
                  e.G.e_name
              | files ->
                Printf.sprintf "%s is exported but only test/ references it (%s)"
                  e.G.e_name (String.concat ", " files)
            in
            Some
              (Lint_global.finding ~rule:id ~loc:e.G.e_loc ~file:e.G.e_file
                 ~message
                 ~hint:
                   "delete it or drop it from the .mli; move a helper whose \
                    test checks a live property into test/; a reference \
                    implementation tests compare against takes [@@jp.lint.allow \
                    \"unused-export\" \"why\"] on the val"
                 ~allow:e.G.e_allow ()))
        p.G.p_exports)
