(* joinproj — command-line driver for the join-project engine.

   Subcommands: datasets, explain, join, star, ssj, scj, bsi, calibrate.
   Every command runs on the synthetic Table-2 presets; see DESIGN.md. *)

module Relation = Jp_relation.Relation
module Presets = Jp_workload.Presets
module Two_path = Joinproj.Two_path
module Optimizer = Joinproj.Optimizer
open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)

let dataset_arg =
  let parse s =
    match Presets.of_string s with
    | Some n -> Ok n
    | None -> Error (`Msg ("unknown dataset: " ^ s))
  in
  let print fmt n = Format.pp_print_string fmt (Presets.to_string n) in
  Arg.conv (parse, print)

let dataset =
  Arg.(
    value
    & opt (some dataset_arg) None
    & info [ "d"; "dataset" ] ~docv:"NAME"
        ~doc:"Dataset preset: dblp, roadnet, jokes, words, protein or image.")

let input_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"FILE"
        ~doc:
          "Load the relation from FILE instead of a preset (native format or \
           two-column TSV, auto-detected).")

let scale =
  Arg.(
    value & opt float 1.0
    & info [ "scale" ] ~docv:"F" ~doc:"Dataset scale multiplier.")

let domains =
  Arg.(
    value & opt int 1
    & info [ "j"; "domains" ] ~docv:"N" ~doc:"Number of domains (cores) to use.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

(* Adaptive-guard flags, shared by join/star/ssj/scj/bsi/profile. *)

let adaptive =
  Arg.(
    value & flag
    & info [ "adaptive" ]
        ~doc:
          "Run under the adaptive plan guard: runtime checkpoints compare \
           observed work against the plan's estimates and may re-plan or \
           degrade mid-query.")

let budget_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget in milliseconds (implies $(b,--adaptive)); \
           exhausting it degrades matrix plans to the safe combinatorial \
           path.")

let inject_est =
  Arg.(
    value
    & opt (some float) None
    & info [ "inject-est" ] ~docv:"FACTOR"
        ~doc:
          "Scale the optimizer's |OUT| estimate by FACTOR (deterministic \
           misestimation injection; implies $(b,--adaptive)).  FACTOR < 1 \
           underestimates, > 1 overestimates; the guard's checkpoints are \
           what recovers from it.")

(* [None] when no guard flag was given, so the default paths stay exactly
   the unguarded ones. *)
let guard_of adaptive budget_ms inject_est =
  if (not adaptive) && budget_ms = None && inject_est = None then None
  else begin
    let module Guard = Jp_adaptive.Guard in
    let cfg = Guard.default in
    let cfg =
      match budget_ms with Some ms -> Guard.with_budget_ms ms cfg | None -> cfg
    in
    let cfg =
      match inject_est with
      | Some f -> Guard.with_inject (Jp_adaptive.Inject.out_only f) cfg
      | None -> cfg
    in
    Some cfg
  end

(* Heavy-product tile flags, shared by join/profile: the [Jp_tile]
   shape cap and resident budget. *)

let tile_bits_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tile-bits" ] ~docv:"K"
        ~doc:
          "Cap the heavy-part product's tile side at 2^K (default 11, \
           clamped to [4, 20]).  The side is fitted to the product (the \
           smallest power of two covering it, at least 16), so this only \
           changes products wider than 2^K; results are bit-equal for \
           every K.")

let max_resident_mb =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-resident-mb" ] ~docv:"MB"
        ~doc:
          "Bound the heavy-part product's resident operand-tile set to MB \
           megabytes: inner blocks shrink to the tile side and cold tiles \
           are evicted LANDLORD-style and rebuilt on demand, so operands \
           larger than the cap stream instead of staying materialized.")

(* [None] when neither flag was given: the engines then use
   [Jp_tile.config ()]. *)
let tile_of tile_bits max_resident_mb =
  if tile_bits = None && max_resident_mb = None then None
  else
    Some
      (Jp_tile.config ?tile_bits
         ?budget_bytes:
           (Option.map (fun mb -> mb * 1024 * 1024) max_resident_mb)
         ())

let warn_guard_unsupported guard what =
  if guard <> None then
    Printf.eprintf
      "joinproj: note: --adaptive/--budget-ms/--inject-est have no effect on %s\n"
      what

let load_input path =
  match Jp_io.Relation_io.load_file path with
  | Ok r -> r
  | Error _ -> (
    (* not the native format: try TSV with dictionary encoding *)
    let ic = open_in path in
    let result =
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          Jp_io.Relation_io.import_tsv ic)
    in
    match result with
    | Ok (r, _, _) -> r
    | Error e -> failwith (path ^ ": " ^ e))

(* A relation comes either from a preset (-d) or a file (-i). *)
let load_source name input scale seed =
  match (name, input) with
  | _, Some path -> load_input path
  | Some n, None -> Presets.load ~scale ~seed n
  | None, None -> failwith "specify a dataset (-d) or an input file (-i)"

let report name count seconds =
  Printf.printf "%-22s %12s pairs   %s\n" name (Jp_util.Tablefmt.big_int count)
    (Jp_util.Tablefmt.seconds seconds)

(* Shared by [explain] and [profile]: the Algorithm-3 plan for the 2-path
   self-join plus its counted variant, one line each. *)
let print_explain ~domains r =
  let plan = Optimizer.plan ~domains ~r ~s:r () in
  print_endline (Optimizer.explain plan);
  let counts_plan = Optimizer.plan_counts ~domains ~r ~s:r () in
  print_endline ("counted variant: " ^ Optimizer.explain counts_plan)

(* ------------------------------------------------------------------ *)
(* commands                                                            *)

let datasets_cmd =
  let run scale seed =
    let header = [ "dataset"; "|R|"; "sets"; "|dom|"; "avg"; "min"; "max" ] in
    let rows =
      List.map
        (fun n ->
          let ch = Presets.characteristics (Presets.load ~scale ~seed n) in
          [
            Presets.to_string n;
            Jp_util.Tablefmt.big_int ch.Presets.tuples;
            Jp_util.Tablefmt.big_int ch.Presets.sets;
            Jp_util.Tablefmt.big_int ch.Presets.dom;
            Printf.sprintf "%.1f" ch.Presets.avg_size;
            string_of_int ch.Presets.min_size;
            string_of_int ch.Presets.max_size;
          ])
        Presets.all
    in
    Jp_util.Tablefmt.print ~header ~rows
  in
  Cmd.v
    (Cmd.info "datasets" ~doc:"Show the characteristics of every dataset preset.")
    Term.(const run $ scale $ seed)

let explain_cmd =
  let run name input scale seed domains =
    let r = load_source name input scale seed in
    print_explain ~domains r
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the plan Algorithm 3 picks for the 2-path self-join.")
    Term.(const run $ dataset $ input_file $ scale $ seed $ domains)

let engines =
  [
    ("mm", `Mm);
    ("nonmm", `Nonmm);
    ("wcoj", `Wcoj);
    ("hash", `Hash);
    ("sortmerge", `Sortmerge);
    ("bitset", `Bitset);
  ]

let engine =
  Arg.(
    value
    & opt (enum engines) `Mm
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:"Engine: $(b,mm), $(b,nonmm), $(b,wcoj), $(b,hash), $(b,sortmerge) or $(b,bitset).")

let join_cmd =
  let run name input scale seed domains engine adaptive budget_ms inject_est
      tile_bits mrmb =
    let r = load_source name input scale seed in
    let guard = guard_of adaptive budget_ms inject_est in
    let tile = tile_of tile_bits mrmb in
    let warn_tile what =
      if tile <> None then
        Printf.eprintf
          "joinproj: note: --tile-bits/--max-resident-mb have no effect on \
           %s, which does not multiply through the tiled kernel\n"
          what
    in
    let count, t =
      Jp_util.Timer.time (fun () ->
          match engine with
          | `Mm ->
            let pairs, plan =
              Two_path.project_with_plan_info ~domains ?guard ?tile ~r ~s:r ()
            in
            print_endline (Optimizer.explain plan);
            Jp_relation.Pairs.count pairs
          | `Nonmm ->
            warn_tile "the combinatorial heavy part";
            Jp_relation.Pairs.count
              (Two_path.project ~domains ~strategy:Two_path.Combinatorial ?guard
                 ~r ~s:r ())
          | `Wcoj ->
            warn_guard_unsupported guard "the wcoj baseline";
            warn_tile "the wcoj baseline";
            Jp_relation.Pairs.count (Jp_baselines.Fulljoin.two_path ~domains ~r ~s:r ())
          | `Hash ->
            warn_guard_unsupported guard "the hash baseline";
            warn_tile "the hash baseline";
            Jp_relation.Pairs.count (Jp_baselines.Hash_join.two_path ~r ~s:r)
          | `Sortmerge ->
            warn_guard_unsupported guard "the sortmerge baseline";
            warn_tile "the sortmerge baseline";
            Jp_relation.Pairs.count (Jp_baselines.Sortmerge_join.two_path ~r ~s:r)
          | `Bitset ->
            warn_guard_unsupported guard "the bitset baseline";
            warn_tile "the bitset baseline";
            Jp_relation.Pairs.count (Jp_baselines.Bitset_engine.two_path ~r ~s:r ()))
    in
    report "two-path join-project" count t
  in
  Cmd.v
    (Cmd.info "join" ~doc:"Evaluate the 2-path join-project self-join.")
    Term.(
      const run $ dataset $ input_file $ scale $ seed $ domains $ engine
      $ adaptive $ budget_ms $ inject_est $ tile_bits_arg $ max_resident_mb)

let star_cmd =
  let k =
    Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"Number of relations.")
  in
  let combinatorial =
    Arg.(
      value & flag
      & info [ "combinatorial" ] ~doc:"Use the combinatorial heavy part (Non-MMJoin).")
  in
  let run name input scale seed domains k combinatorial adaptive budget_ms
      inject_est =
    if k < 2 then failwith "k must be >= 2";
    let r = load_source name input scale seed in
    let guard = guard_of adaptive budget_ms inject_est in
    let rels = Array.make k r in
    let strategy =
      if combinatorial then Joinproj.Star.Combinatorial else Joinproj.Star.Matrix
    in
    let count, t =
      Jp_util.Timer.time (fun () ->
          Jp_relation.Tuples.count
            (Joinproj.Star.project ~domains ~strategy ?guard rels))
    in
    report (Printf.sprintf "star join (k=%d)" k) count t
  in
  Cmd.v
    (Cmd.info "star" ~doc:"Evaluate the star join-project self-join.")
    Term.(
      const run $ dataset $ input_file $ scale $ seed $ domains $ k
      $ combinatorial $ adaptive $ budget_ms $ inject_est)

let ssj_cmd =
  let c = Arg.(value & opt int 2 & info [ "c" ] ~docv:"C" ~doc:"Overlap threshold.") in
  let algo =
    Arg.(
      value
      & opt (enum [ ("mm", `Mm); ("sizeaware", `Sa); ("sizeaware++", `Sapp) ]) `Mm
      & info [ "a"; "algo" ] ~docv:"ALGO"
          ~doc:"Algorithm: $(b,mm), $(b,sizeaware) or $(b,sizeaware++).")
  in
  let ordered =
    Arg.(value & flag & info [ "ordered" ] ~doc:"Enumerate by decreasing overlap.")
  in
  let run name input scale seed domains c algo ordered adaptive budget_ms
      inject_est =
    let r = load_source name input scale seed in
    let guard = guard_of adaptive budget_ms inject_est in
    (match algo with
    | `Mm -> ()
    | `Sa | `Sapp -> warn_guard_unsupported guard "the size-aware algorithms");
    if ordered then begin
      let result, t =
        Jp_util.Timer.time (fun () ->
            match algo with
            | `Mm -> Jp_ssj.Ordered.via_counts ~domains ~c r
            | `Sa -> Jp_ssj.Ordered.via_pairs r ~c (Jp_ssj.Size_aware.join ~c r)
            | `Sapp ->
              Jp_ssj.Ordered.via_pairs r ~c (Jp_ssj.Size_aware_pp.join ~domains ~c r))
      in
      report "ordered ssj" (Array.length result) t;
      Array.iteri
        (fun i (a, b, k) ->
          if i < 10 then Printf.printf "  %d ~ %d : %d common elements\n" a b k)
        result
    end
    else begin
      let count, t =
        Jp_util.Timer.time (fun () ->
            Jp_relation.Pairs.count
              (match algo with
              | `Mm -> Jp_ssj.Mm_ssj.join ~domains ?guard ~c r
              | `Sa -> Jp_ssj.Size_aware.join ~c r
              | `Sapp -> Jp_ssj.Size_aware_pp.join ~domains ~c r))
      in
      report (Printf.sprintf "ssj (c=%d)" c) count t
    end
  in
  Cmd.v
    (Cmd.info "ssj" ~doc:"Set-similarity self-join.")
    Term.(
      const run $ dataset $ input_file $ scale $ seed $ domains $ c $ algo
      $ ordered $ adaptive $ budget_ms $ inject_est)

let scj_cmd =
  let algo =
    Arg.(
      value
      & opt
          (enum
             [ ("mm", `Mm); ("pretti", `Pretti); ("limit+", `Limit); ("piejoin", `Pie) ])
          `Mm
      & info [ "a"; "algo" ] ~docv:"ALGO"
          ~doc:"Algorithm: $(b,mm), $(b,pretti), $(b,limit+) or $(b,piejoin).")
  in
  let run name input scale seed domains algo adaptive budget_ms inject_est =
    let r = load_source name input scale seed in
    let guard = guard_of adaptive budget_ms inject_est in
    (match algo with
    | `Mm -> ()
    | `Pretti | `Limit | `Pie ->
      warn_guard_unsupported guard "the trie-based algorithms");
    let count, t =
      Jp_util.Timer.time (fun () ->
          Jp_relation.Pairs.count
            (match algo with
            | `Mm -> Jp_scj.Mm_scj.join ~domains ?guard r
            | `Pretti -> Jp_scj.Pretti.join r
            | `Limit -> Jp_scj.Limit_plus.join r
            | `Pie -> Jp_scj.Piejoin.join ~domains r))
    in
    report "set containment join" count t
  in
  Cmd.v
    (Cmd.info "scj" ~doc:"Set-containment self-join.")
    Term.(
      const run $ dataset $ input_file $ scale $ seed $ domains $ algo
      $ adaptive $ budget_ms $ inject_est)

let bsi_cmd =
  let batch =
    Arg.(value & opt int 500 & info [ "batch" ] ~docv:"C" ~doc:"Batch size.")
  in
  let rate =
    Arg.(value & opt float 1000.0 & info [ "rate" ] ~docv:"B" ~doc:"Queries per second.")
  in
  let count =
    Arg.(value & opt int 4000 & info [ "queries" ] ~docv:"Q" ~doc:"Workload size.")
  in
  let combinatorial =
    Arg.(value & flag & info [ "combinatorial" ] ~doc:"Use the combinatorial engine.")
  in
  let run name input scale seed domains batch rate count combinatorial adaptive
      budget_ms inject_est =
    let r = load_source name input scale seed in
    let guard = guard_of adaptive budget_ms inject_est in
    let n = Relation.src_count r in
    let queries = Jp_workload.Generate.batch_queries ~seed ~count ~nx:n ~nz:n () in
    let strategy = if combinatorial then Jp_bsi.Bsi.Combinatorial else Jp_bsi.Bsi.Mm in
    let stats =
      Jp_bsi.Bsi.simulate ~domains ~strategy ?guard ~r ~s:r ~queries ~rate
        ~batch_size:batch ()
    in
    Printf.printf
      "batch=%d  batches=%d  avg delay %s  max delay %s  units needed %.2f\n"
      stats.Jp_bsi.Bsi.batch_size stats.Jp_bsi.Bsi.batches
      (Jp_util.Tablefmt.seconds stats.Jp_bsi.Bsi.avg_delay)
      (Jp_util.Tablefmt.seconds stats.Jp_bsi.Bsi.max_delay)
      stats.Jp_bsi.Bsi.units_needed
  in
  Cmd.v
    (Cmd.info "bsi" ~doc:"Boolean set intersection under a batched workload.")
    Term.(
      const run $ dataset $ input_file $ scale $ seed $ domains $ batch $ rate
      $ count $ combinatorial $ adaptive $ budget_ms $ inject_est)

let write_text ~what path content =
  match open_out path with
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc content);
    Printf.printf "wrote %s to %s\n" what path
  | exception Sys_error msg ->
    Printf.eprintf "joinproj: cannot write %s: %s\n" what msg;
    exit 1

(* Shared by profile, serve and stress. *)
let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Also write the span events as Chrome-trace JSON (load in \
           chrome://tracing or Perfetto).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write an OpenMetrics/Prometheus text exposition of the run's \
           counters, gauges and latency histograms.")

let profile_cmd =
  let what =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("join", `Join); ("star", `Star); ("ssj", `Ssj); ("scj", `Scj); ("bsi", `Bsi) ]))
          None
      & info [] ~docv:"WHAT"
          ~doc:"Flow to profile: $(b,join), $(b,star), $(b,ssj), $(b,scj) or $(b,bsi).")
  in
  let run name input scale seed domains what trace_out metrics_out adaptive
      budget_ms inject_est tile_bits mrmb =
    let r = load_source name input scale seed in
    let guard = guard_of adaptive budget_ms inject_est in
    let tile = tile_of tile_bits mrmb in
    (match (tile, what) with
    | Some _, (`Star | `Ssj | `Scj | `Bsi) ->
      Printf.eprintf
        "joinproj: note: --tile-bits/--max-resident-mb only reach the join \
         flow; a heavy product in the other flows uses the default tile \
         config\n"
    | _ -> ());
    (* The plan lines come from the same helper as [explain]; print them
       before recording starts so the extra planning calls stay out of the
       span tree. *)
    (match what with
    | `Star -> ()
    | `Join | `Ssj | `Scj | `Bsi -> print_explain ~domains r);
    Jp_obs.reset ();
    Jp_metrics.reset ();
    Jp_obs.enable ();
    let label, count, t =
      Fun.protect ~finally:Jp_obs.disable (fun () ->
          Jp_util.Timer.time (fun () ->
              match what with
              | `Join ->
                Jp_relation.Pairs.count
                  (Two_path.project ~domains ?guard ?tile ~r ~s:r ())
              | `Star ->
                Jp_relation.Tuples.count
                  (Joinproj.Star.project ~domains ?guard (Array.make 3 r))
              | `Ssj ->
                Jp_relation.Pairs.count (Jp_ssj.Mm_ssj.join ~domains ?guard ~c:2 r)
              | `Scj -> Jp_relation.Pairs.count (Jp_scj.Mm_scj.join ~domains ?guard r)
              | `Bsi ->
                let n = Relation.src_count r in
                let queries =
                  Jp_workload.Generate.batch_queries ~seed ~count:4000 ~nx:n ~nz:n ()
                in
                let answers =
                  Jp_bsi.Bsi.answer_batch ~domains ?guard ~r ~s:r queries
                in
                Array.fold_left (fun acc hit -> if hit then acc + 1 else acc) 0 answers)
          |> fun (count, t) ->
          let label =
            match what with
            | `Join -> "two-path join-project"
            | `Star -> "star join (k=3)"
            | `Ssj -> "ssj (c=2)"
            | `Scj -> "set containment join"
            | `Bsi -> "bsi batch (4000 queries)"
          in
          (label, count, t))
    in
    report label count t;
    print_newline ();
    print_string (Jp_obs.render_spans ());
    print_newline ();
    print_string (Jp_obs.render_counters ());
    print_newline ();
    print_string (Jp_obs.render_plans ());
    (match trace_out with
    | None -> ()
    | Some path ->
      write_text ~what:"Chrome trace" path (Jp_metrics.chrome_trace_string ()));
    match metrics_out with
    | None -> ()
    | Some path ->
      write_text ~what:"OpenMetrics exposition" path (Jp_metrics.exposition ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a flow with Jp_obs recording enabled and print the span tree, \
          the engine counters and the plan-vs-actual table.")
    Term.(
      const run $ dataset $ input_file $ scale $ seed $ domains $ what
      $ trace_out_arg $ metrics_out_arg $ adaptive $ budget_ms $ inject_est
      $ tile_bits_arg $ max_resident_mb)

let policy_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", Jp_query.Planner.Cost_gate);
             ("mm", Jp_query.Planner.Always_mm);
             ("yannakakis", Jp_query.Planner.Never_mm);
           ])
        Jp_query.Planner.Cost_gate
    & info [ "policy" ] ~docv:"P"
        ~doc:
          "Fragment dispatch policy: $(b,auto) (carve MM fragments when the \
           calibrated cost model predicts a win), $(b,mm) (force every \
           eligible fragment through the MM engines), $(b,yannakakis) (pure \
           semijoin program, no MM fragments).")

let query_cmd =
  let query_text =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "Conjunctive query, e.g. 'Q(x,z) :- R(x,y), S(z,y)'.  The \
             relations R, S and T all resolve to the chosen dataset.")
  in
  let explain_flag =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the full plan tree (stitch root, MM fragments with their \
             cost-gate estimates, scans) before running.")
  in
  let run name input scale seed domains policy explain_flag cache_mb adaptive
      budget_ms inject_est query_text =
    let r = load_source name input scale seed in
    let catalog = [ ("R", r); ("S", r); ("T", r) ] in
    let guard = guard_of adaptive budget_ms inject_est in
    let cache =
      if cache_mb > 0 then
        Some (Jp_cache.create ~config:(Jp_cache.with_budget_mb cache_mb) ())
      else None
    in
    match Jp_query.Cq.parse query_text with
    | Error e -> prerr_endline e
    | Ok q -> (
      (match Jp_query.Engine.plan_of ~domains ~policy ~catalog q with
      | Ok plan ->
        print_endline ("plan: " ^ Jp_query.Engine.describe plan);
        if explain_flag then print_string (Jp_query.Engine.explain plan)
      | Error e -> print_endline ("plan: " ^ e));
      if q.Jp_query.Cq.head = [] then begin
        let result, t =
          Jp_util.Timer.time (fun () ->
              Jp_query.Engine.boolean ~domains ~policy ?guard ?cache catalog q)
        in
        match result with
        | Error e -> prerr_endline e
        | Ok sat ->
          Printf.printf "boolean: %s in %s\n"
            (if sat then "true" else "false")
            (Jp_util.Tablefmt.seconds t)
      end
      else begin
        let result, t =
          Jp_util.Timer.time (fun () ->
              Jp_query.Engine.run ~domains ~policy ?guard ?cache catalog q)
        in
        match result with
        | Error e -> prerr_endline e
        | Ok tuples ->
          Printf.printf "%s tuples in %s\n"
            (Jp_util.Tablefmt.big_int (Jp_relation.Tuples.count tuples))
            (Jp_util.Tablefmt.seconds t);
          let shown = ref 0 in
          (try
             Jp_relation.Tuples.iter
               (fun tuple ->
                 if !shown >= 5 then raise Exit;
                 incr shown;
                 Printf.printf "  (%s)\n"
                   (String.concat ", " (List.map string_of_int (Array.to_list tuple))))
               tuples
           with Exit -> print_endline "  ...")
      end)
  in
  let cache_mb_query =
    Arg.(
      value & opt int 0
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:
            "Semantic cache budget in megabytes (prepared statistics and \
             heavy matrix products are reused across this query's MM \
             fragments); 0 disables caching.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Evaluate a conjunctive query.  Whole-query star shapes dispatch \
          directly to MMJoin; every other acyclic query goes through the \
          decomposition planner, which carves embedded 2-path / k-star \
          fragments for the MM engines (cost-gated; see $(b,--policy)) and \
          stitches them back into the Yannakakis semijoin program.  An \
          empty head, e.g. 'Q() :- R(x,y), S(z,y)', is answered as a \
          boolean query.")
    Term.(
      const run $ dataset $ input_file $ scale $ seed $ domains $ policy_arg
      $ explain_flag $ cache_mb_query $ adaptive $ budget_ms $ inject_est
      $ query_text)

let export_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Destination path (native format).")
  in
  let run name input scale seed out =
    let r = load_source name input scale seed in
    Jp_io.Relation_io.save_file r out;
    Printf.printf "wrote %s tuples to %s\n"
      (Jp_util.Tablefmt.big_int (Relation.size r))
      out
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write a dataset to a file in the native format.")
    Term.(const run $ dataset $ input_file $ scale $ seed $ out)

let stats_cmd =
  let run name input scale seed =
    let r = load_source name input scale seed in
    let ch = Presets.characteristics r in
    Printf.printf "tuples %s, sets %s, dom %s, avg size %.1f (min %d, max %d)\n"
      (Jp_util.Tablefmt.big_int ch.Presets.tuples)
      (Jp_util.Tablefmt.big_int ch.Presets.sets)
      (Jp_util.Tablefmt.big_int ch.Presets.dom)
      ch.Presets.avg_size ch.Presets.min_size ch.Presets.max_size;
    Printf.printf "full 2-path self-join size: %s\n"
      (Jp_util.Tablefmt.big_int (Relation.join_size_on_dst [ r; r ]))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Characteristics of a dataset or imported file.")
    Term.(const run $ dataset $ input_file $ scale $ seed)

(* ------------------------------------------------------------------ *)
(* serve / stress: the resilient query service                         *)

(* The query pool for the general-CQ service flavour: acyclic,
   non-whole-star queries that exercise the decomposition planner (carved
   2-path fragments stitched into Yannakakis, boolean heads, dangling
   variables).  All relation names resolve to the query's sub-relation. *)
let cq_pool =
  lazy
    (Array.map
       (fun s -> Result.get_ok (Jp_query.Cq.parse s))
       [|
         "Q(a, d) :- R(a, b), S(b, c), T(c, d)";
         "Q(a) :- R(a, b), S(c, b), T(c, d)";
         "Q(a, c) :- R(a, b), S(c, b), T(c, d)";
         "Q() :- R(a, b), S(c, b)";
       |])

(* The served workload: query i runs one of five engine flavours on a
   pseudo-random sub-relation of the dataset (seeded per query, so the
   workload — and the chaos plan keyed on the query index — is
   reproducible).  Expected outputs come from direct, fault-free engine
   calls before the service starts; a served query must match them
   exactly or end in a typed error.  [flavour] other than [`Auto] pins
   every query to one engine.

   With [skew] > 0 the queries draw their identity from a pool of
   [~nq/4] distinct sub-relations with Zipf([skew]) popularity — the
   repeated-query traffic a semantic cache exists for.  [skew] = 0 keeps
   the historical one-distinct-query-per-submission workload. *)
let service_workload ~seed ~domains ~nq ~skew ~flavour r =
  let n = Relation.src_count r in
  let distinct = if skew > 0.0 then max 1 ((nq + 3) / 4) else nq in
  let ident =
    if skew > 0.0 then begin
      let z = Jp_workload.Zipf.create ~exponent:skew distinct in
      let g = Jp_util.Rng.create (seed + 13) in
      Array.init nq (fun _ -> Jp_workload.Zipf.sample z g)
    end
    else Array.init nq (fun i -> i)
  in
  let engine_of i =
    match flavour with
    | `Mm -> ("mm", `Mm)
    | `Nonmm -> ("nonmm", `Nonmm)
    | `Ssj -> ("ssj", `Ssj)
    | `Scj -> ("scj", `Scj)
    | `Cq -> ("cq", `Cq)
    | `Auto -> (
      match ident.(i) mod 5 with
      | 0 -> ("mm", `Mm)
      | 1 -> ("nonmm", `Nonmm)
      | 2 -> ("ssj", `Ssj)
      | 3 -> ("scj", `Scj)
      | _ -> ("cq", `Cq))
  in
  let engine_code i =
    match snd (engine_of i) with
    | `Mm -> 0
    | `Nonmm -> 1
    | `Ssj -> 2
    | `Scj -> 3
    | `Cq -> 4
  in
  let subs =
    Array.init distinct (fun d ->
        let g = Jp_util.Rng.create (seed + (7919 * d)) in
        let frac = 0.3 +. Jp_util.Rng.float g 0.4 in
        let keep = Array.init n (fun _ -> Jp_util.Rng.float g 1.0 < frac) in
        Relation.restrict_src r (fun a -> keep.(a)))
  in
  let sub_of i = subs.(ident.(i)) in
  let count_of ?guard ?cancel ?cache i =
    let sub = sub_of i in
    let memo =
      Option.map (fun c -> Jp_cache.two_path_memo c ~r:sub ~s:sub) cache
    in
    match snd (engine_of i) with
    | `Mm ->
      Jp_relation.Pairs.count
        (Two_path.project ~domains ?guard ?cancel ?memo ~r:sub ~s:sub ())
    | `Nonmm ->
      Jp_relation.Pairs.count
        (Two_path.project ~domains ~strategy:Two_path.Combinatorial ?guard
           ?cancel ~r:sub ~s:sub ())
    | `Ssj ->
      Jp_relation.Pairs.count
        (Jp_ssj.Mm_ssj.join ~domains ?guard ?cancel ?cache ~c:2 sub)
    | `Scj ->
      Jp_relation.Pairs.count (Jp_scj.Mm_scj.join ~domains ?guard ?cancel ?cache sub)
    | `Cq -> (
      let pool = Lazy.force cq_pool in
      let q = pool.(ident.(i) mod Array.length pool) in
      let catalog = [ ("R", sub); ("S", sub); ("T", sub) ] in
      if q.Jp_query.Cq.head = [] then
        match Jp_query.Engine.boolean ~domains ?guard ?cancel ?cache catalog q with
        | Ok sat -> if sat then 1 else 0
        | Error e -> failwith ("cq flavour: " ^ e)
      else
        match Jp_query.Engine.run ~domains ?guard ?cancel ?cache catalog q with
        | Ok tuples -> Jp_relation.Tuples.count tuples
        | Error e -> failwith ("cq flavour: " ^ e))
  in
  (engine_of, engine_code, count_of, sub_of)

let run_service ~name ~input ~scale ~seed ~domains ~nq ~workers ~queue_cap
    ~retries ~backoff_ms ~deadline_ms ~chaos ~cache_mb ~skew ~flavour
    ~open_loop ~rate ~sweep ~arrivals ~no_ctl ~metrics_out ~trace_out =
  let r = load_source name input scale seed in
  Jp_obs.reset ();
  Jp_metrics.reset ();
  Jp_obs.enable ();
  let engine_of, engine_code, count_of, sub_of =
    service_workload ~seed ~domains ~nq ~skew ~flavour r
  in
  (* Expected answers come from direct, cache-free calls: the cache must
     only ever reproduce them. *)
  let expected = Array.init nq (fun i -> count_of i) in
  let cache =
    if cache_mb > 0 then
      Some (Jp_cache.create ~config:(Jp_cache.with_budget_mb cache_mb) ())
    else None
  in
  let count_tag : int Jp_cache.tag = Jp_cache.tag "serve.count" in
  let binding_of i =
    Option.map
      (fun c ->
        let key =
          Jp_cache.Key.of_relations ~kind:"serve.result"
            ~params:[ engine_code i ]
            [ sub_of i ]
        in
        Jp_cache.binding c count_tag key
          ~bytes_of:(fun _ -> 16)
          ~verify:(fun v -> v = expected.(i))
          ())
      cache
  in
  let cfg =
    {
      Jp_service.workers;
      queue_capacity = queue_cap;
      max_retries = retries;
      backoff_s = backoff_ms /. 1e3;
      default_deadline_s = Option.map (fun ms -> ms /. 1e3) deadline_ms;
      chaos;
      controller =
        (if open_loop && not no_ctl then Some Jp_service.Overload.default
         else None);
    }
  in
  let submit_one svc i =
    Jp_service.submit svc ~key:i ?cached:(binding_of i)
      (fun ~cancel ~attempt:_ ~degraded ->
        let guard = if degraded then Some Jp_adaptive.Guard.safe else None in
        count_of ?guard ~cancel ?cache i)
  in
  let wrong = ref 0 in
  if open_loop then begin
    (* Open-loop: arrivals come from a fixed, seeded schedule that never
       waits for the service — a rate past saturation piles up queueing
       instead of stretching the client.  One fresh service (and fresh
       controller state) per swept rate. *)
    let rates =
      match sweep with
      | Some (lo, hi, steps) -> Jp_workload.Arrivals.sweep ~lo ~hi ~steps
      | None -> [| rate |]
    in
    let header =
      [ "rate"; "sub"; "ok"; "hit"; "shed"; "qfull"; "expired"; "deadline";
        "cancel"; "fail"; "p50"; "p95"; "p99"; "goodput" ]
    in
    let module Hist = Jp_metrics.Hist in
    let rows =
      Array.to_list rates
      |> List.map (fun rate ->
             let svc = Jp_service.create cfg in
             let schedule =
               Jp_workload.Arrivals.schedule ~process:arrivals ~seed ~rate
                 ~count:nq ()
             in
             let tickets = Array.make nq None in
             let start =
               Jp_workload.Arrivals.drive ~now:Jp_util.Timer.now
                 ~sleep:Unix.sleepf ~schedule (fun i ->
                   tickets.(i) <- Some (submit_one svc i))
             in
             let reports =
               Array.map
                 (fun tk -> Jp_service.await (Option.get tk))
                 tickets
             in
             let makespan = Jp_util.Timer.now () -. start in
             Jp_service.shutdown svc;
             let tally = Hashtbl.create 8 in
             let bump k =
               Hashtbl.replace tally k
                 (1 + Option.value ~default:0 (Hashtbl.find_opt tally k))
             in
             let e2e = Hist.create () in
             let ok = ref 0 in
             Array.iteri
               (fun i rep ->
                 match rep.Jp_service.outcome with
                 | Ok c ->
                   if c <> expected.(i) then incr wrong;
                   incr ok;
                   if rep.Jp_service.cache_hit then bump "hit";
                   Hist.observe e2e
                     (rep.Jp_service.queued_s +. rep.Jp_service.ran_s)
                 | Error e -> bump (Jp_service.error_to_string e))
               reports;
             let n k =
               string_of_int (Option.value ~default:0 (Hashtbl.find_opt tally k))
             in
             let cell q =
               if Hist.count e2e = 0 then "-"
               else Jp_util.Tablefmt.seconds (Hist.quantile e2e q)
             in
             (* Goodput counts answers produced within their deadline: an
                Ok outcome already implies that when a deadline is armed
                (expiry is a typed error), so it is simply Ok/s. *)
             let goodput =
               if makespan > 0. then float_of_int !ok /. makespan else 0.
             in
             [
               Printf.sprintf "%.1f/s" rate;
               string_of_int nq;
               string_of_int !ok;
               n "hit";
               n "shed";
               n "overloaded";
               n "expired-in-queue";
               n "deadline";
               n "cancelled";
               (let f = ref 0 in
                Hashtbl.iter
                  (fun k v ->
                    if String.length k >= 6 && String.sub k 0 6 = "failed" then
                      f := !f + v)
                  tally;
                string_of_int !f);
               cell 0.50;
               cell 0.95;
               cell 0.99;
               Printf.sprintf "%.1f/s" goodput;
             ])
    in
    Printf.printf "open-loop %s arrivals, %d queries per rate, controller %s\n\n"
      (Jp_workload.Arrivals.process_to_string arrivals)
      nq
      (if no_ctl then "off" else "on");
    Jp_util.Tablefmt.print ~header ~rows;
    print_newline ();
    print_string (Jp_obs.render_counters ());
    (match cache with
    | None -> ()
    | Some c -> Format.printf "\n%a@." Jp_cache.pp_stats (Jp_cache.stats c));
    (match metrics_out with
    | None -> ()
    | Some path ->
      write_text ~what:"OpenMetrics exposition" path (Jp_metrics.exposition ()));
    (match trace_out with
    | None -> ()
    | Some path ->
      write_text ~what:"Chrome trace" path (Jp_metrics.chrome_trace_string ()));
    let spawned = Jp_obs.value Jp_obs.C.service_workers_spawned in
    let joined = Jp_obs.value Jp_obs.C.service_workers_joined in
    Jp_obs.disable ();
    if !wrong > 0 then begin
      Printf.eprintf
        "joinproj: error: %d served queries returned wrong results\n" !wrong;
      exit 1
    end;
    if spawned <> joined then begin
      Printf.eprintf
        "joinproj: error: leaked worker domains (%d spawned, %d joined)\n"
        spawned joined;
      exit 1
    end
  end
  else begin
  let svc = Jp_service.create cfg in
  let reports =
    if Option.is_none cache then
      (* Fire-and-await client: everything is in flight at once (this is
         what exercises admission control). *)
      Array.map Jp_service.await (Array.init nq (submit_one svc))
    else
      (* Closed-loop when the cache is armed: a repeated query can only
         hit an entry once the earlier identical query has completed and
         published. *)
      Array.init nq (fun i -> Jp_service.await (submit_one svc i))
  in
  Jp_service.shutdown svc;
  let header =
    [ "q"; "engine"; "outcome"; "att"; "retry"; "deg"; "hit"; "out"; "expect";
      "ok"; "ran" ]
  in
  let rows =
    List.init nq (fun i ->
        let rep = reports.(i) in
        let out, outcome, ok =
          match rep.Jp_service.outcome with
          | Ok c ->
            let ok = c = expected.(i) in
            if not ok then incr wrong;
            (string_of_int c, "ok", if ok then "yes" else "WRONG")
          | Error e -> ("-", Jp_service.error_to_string e, "-")
        in
        [
          string_of_int i;
          fst (engine_of i);
          outcome;
          string_of_int rep.Jp_service.attempts;
          string_of_int rep.Jp_service.retries;
          (if rep.Jp_service.degraded then "yes" else "-");
          (if rep.Jp_service.cache_hit then "yes" else "-");
          out;
          string_of_int expected.(i);
          ok;
          Jp_util.Tablefmt.seconds rep.Jp_service.ran_s;
        ])
  in
  Jp_util.Tablefmt.print ~header ~rows;
  print_newline ();
  print_string (Jp_obs.render_counters ());
  (match cache with
  | None -> ()
  | Some c ->
    Format.printf "\n%a@." Jp_cache.pp_stats (Jp_cache.stats c));
  (* Latency summary over the run's reports, bucketed with the same
     base-√2 ladder as the service histograms: quantiles are bucket upper
     bounds, so the table's shape (and, for a fixed seed, its bucket
     placement) is deterministic even though raw times vary. *)
  let module Hist = Jp_metrics.Hist in
  let outcome_keys =
    [ "ok"; "ok (cache hit)"; "overloaded"; "shed"; "expired"; "deadline";
      "cancelled"; "failed" ]
  in
  let by_outcome = List.map (fun k -> (k, Hist.create ())) outcome_keys in
  let queued = Hist.create () and ran = Hist.create () in
  Array.iter
    (fun rep ->
      let key =
        match rep.Jp_service.outcome with
        | Ok _ -> if rep.Jp_service.cache_hit then "ok (cache hit)" else "ok"
        | Error Jp_service.Overloaded -> "overloaded"
        | Error Jp_service.Shed -> "shed"
        | Error Jp_service.Expired_in_queue -> "expired"
        | Error Jp_service.Deadline_exceeded -> "deadline"
        | Error Jp_service.Cancelled -> "cancelled"
        | Error (Jp_service.Failed _) -> "failed"
      in
      Hist.observe (List.assoc key by_outcome) rep.Jp_service.ran_s;
      (* Queries refused at admission (queue full or shed) never entered
         the queue: they would only dilute the latency distributions with
         zeros. *)
      if key <> "overloaded" && key <> "shed" then begin
        Hist.observe queued rep.Jp_service.queued_s;
        Hist.observe ran rep.Jp_service.ran_s
      end)
    reports;
  let cell h q =
    if Hist.count h = 0 then "-" else Jp_util.Tablefmt.seconds (Hist.quantile h q)
  in
  let cell_max h =
    if Hist.count h = 0 then "-"
    else Jp_util.Tablefmt.seconds (Hist.max_value h)
  in
  print_newline ();
  Jp_util.Tablefmt.print
    ~header:[ "latency"; "p50"; "p95"; "p99"; "max"; "n" ]
    ~rows:
      (List.map
         (fun (label, h) ->
           [
             label;
             cell h 0.50;
             cell h 0.95;
             cell h 0.99;
             cell_max h;
             string_of_int (Hist.count h);
           ])
         [ ("queued", queued); ("ran", ran) ]);
  print_newline ();
  Jp_util.Tablefmt.print
    ~header:[ "outcome"; "n"; "ran p50"; "ran p95"; "ran max" ]
    ~rows:
      (List.map
         (fun (k, h) ->
           [ k; string_of_int (Hist.count h); cell h 0.50; cell h 0.95;
             cell_max h ])
         by_outcome);
  (match metrics_out with
  | None -> ()
  | Some path ->
    write_text ~what:"OpenMetrics exposition" path (Jp_metrics.exposition ()));
  (match trace_out with
  | None -> ()
  | Some path ->
    write_text ~what:"Chrome trace" path (Jp_metrics.chrome_trace_string ()));
  let spawned = Jp_obs.value Jp_obs.C.service_workers_spawned in
  let joined = Jp_obs.value Jp_obs.C.service_workers_joined in
  Jp_obs.disable ();
  let completed =
    Array.fold_left
      (fun acc rep ->
        match rep.Jp_service.outcome with Ok _ -> acc + 1 | Error _ -> acc)
      0 reports
  in
  Printf.printf "\n%d/%d completed, %d wrong, workers %d spawned / %d joined\n"
    completed nq !wrong spawned joined;
  if !wrong > 0 then begin
    Printf.eprintf "joinproj: error: %d served queries returned wrong results\n"
      !wrong;
    exit 1
  end;
  if spawned <> joined then begin
    Printf.eprintf "joinproj: error: leaked worker domains (%d spawned, %d joined)\n"
      spawned joined;
    exit 1
  end
  end

(* Flags shared by serve and stress. *)
let queries_n =
  Arg.(
    value & opt int 24
    & info [ "queries" ] ~docv:"Q" ~doc:"Number of queries to submit.")

let workers_arg =
  Arg.(
    value & opt int 2
    & info [ "workers" ] ~docv:"W" ~doc:"Service worker domains.")

let queue_cap =
  Arg.(
    value & opt int 64
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:"Admission bound; submissions beyond it are rejected as overloaded.")

let retries_arg =
  Arg.(
    value & opt int 2
    & info [ "retries" ] ~docv:"N"
        ~doc:"Transient-fault retries before the degraded final attempt.")

let backoff_ms =
  Arg.(
    value & opt float 5.0
    & info [ "backoff-ms" ] ~docv:"MS" ~doc:"Base retry backoff (doubles per retry).")

let deadline_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Per-query deadline; expired queries report a typed error.")

let cache_mb_arg =
  Arg.(
    value & opt int 0
    & info [ "cache-mb" ] ~docv:"MB"
        ~doc:
          "Semantic cache budget (prepared statistics, matrix products, \
           results) in megabytes; 0 disables caching.")

let query_skew =
  Arg.(
    value & opt float 0.0
    & info [ "query-skew" ] ~docv:"EXP"
        ~doc:
          "Zipf exponent for query popularity: queries draw from a pool of \
           Q/4 distinct sub-relations, so hot queries repeat.  0 keeps every \
           query distinct.")

let open_loop_flag =
  Arg.(
    value & flag
    & info [ "open-loop" ]
        ~doc:
          "Submit queries on a fixed, seeded arrival schedule instead of the \
           fire-and-await client: arrivals never wait for the service, so a \
           rate past saturation shows up as queueing (and overload-control \
           behaviour), not as a slower client.  Arms the overload controller \
           unless $(b,--no-overload-control).")

let rate_arg =
  Arg.(
    value & opt float 50.0
    & info [ "rate" ] ~docv:"QPS"
        ~doc:"Open-loop arrival rate in queries per second.")

let sweep_conv =
  let parse s =
    match Scanf.sscanf_opt s "%f:%f:%d%!" (fun lo hi n -> (lo, hi, n)) with
    | Some (lo, hi, n) when lo > 0.0 && hi >= lo && n >= 1 -> Ok (lo, hi, n)
    | _ -> Error (`Msg "expected LO:HI:STEPS with 0 < LO <= HI, STEPS >= 1")
  in
  let print ppf (lo, hi, n) = Format.fprintf ppf "%g:%g:%d" lo hi n in
  Arg.conv (parse, print)

let sweep_arg =
  Arg.(
    value
    & opt (some sweep_conv) None
    & info [ "sweep" ] ~docv:"LO:HI:STEPS"
        ~doc:
          "Saturation sweep: run the open-loop workload at STEPS arrival \
           rates stepped geometrically from LO to HI queries/second \
           (overrides $(b,--rate)).")

let arrivals_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("fixed", Jp_workload.Arrivals.Fixed_rate);
             ("poisson", Jp_workload.Arrivals.Poisson);
           ])
        Jp_workload.Arrivals.Fixed_rate
    & info [ "arrivals" ] ~docv:"P"
        ~doc:
          "Open-loop arrival process: $(b,fixed) (query i arrives exactly at \
           i/rate) or $(b,poisson) (seeded exponential interarrivals).")

let no_ctl_flag =
  Arg.(
    value & flag
    & info [ "no-overload-control" ]
        ~doc:
          "Disable the overload controller under $(b,--open-loop) (the \
           collapse foil): admission falls back to the bare bounded queue.")

let flavour_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", `Auto);
             ("mm", `Mm);
             ("nonmm", `Nonmm);
             ("ssj", `Ssj);
             ("scj", `Scj);
             ("cq", `Cq);
           ])
        `Auto
    & info [ "flavour" ] ~docv:"F"
        ~doc:
          "Engine flavour for every query: $(b,mm), $(b,nonmm), $(b,ssj), \
           $(b,scj) or $(b,cq) (general conjunctive queries through the \
           decomposition planner).  $(b,auto) cycles through all five.")

let serve_cmd =
  let run name input scale seed domains nq workers queue_cap retries backoff_ms
      deadline_ms cache_mb skew flavour open_loop rate sweep arrivals no_ctl
      metrics_out trace_out =
    run_service ~name ~input ~scale ~seed ~domains ~nq ~workers ~queue_cap
      ~retries ~backoff_ms ~deadline_ms ~chaos:None ~cache_mb ~skew ~flavour
      ~open_loop ~rate ~sweep ~arrivals ~no_ctl ~metrics_out ~trace_out
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a query workload through the resilient service (bounded queue, \
          worker domains, deadlines) and verify every answer against direct \
          engine calls.  $(b,--cache-mb) arms the cross-query semantic cache; \
          $(b,--query-skew) makes the workload Zipf-repeated so it has \
          something to hit.  $(b,--open-loop) $(b,--rate) (or $(b,--sweep)) \
          switches to a seeded arrival schedule with goodput and \
          p50/p95/p99 reporting, with the overload controller armed.")
    Term.(
      const run $ dataset $ input_file $ scale $ seed $ domains $ queries_n
      $ workers_arg $ queue_cap $ retries_arg $ backoff_ms $ deadline_ms
      $ cache_mb_arg $ query_skew $ flavour_arg $ open_loop_flag $ rate_arg
      $ sweep_arg $ arrivals_arg $ no_ctl_flag $ metrics_out_arg
      $ trace_out_arg)

let stress_cmd =
  let chaos_seed =
    Arg.(
      value & opt int 1
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:"Fault-injection seed; equal seeds inject identical faults.")
  in
  let p_transient =
    Arg.(
      value & opt float 0.20
      & info [ "p-transient" ] ~docv:"P" ~doc:"Probability of a transient fault per attempt.")
  in
  let p_kill =
    Arg.(
      value & opt float 0.05
      & info [ "p-kill" ] ~docv:"P" ~doc:"Probability of a worker-domain death per attempt.")
  in
  let p_slow =
    Arg.(
      value & opt float 0.05
      & info [ "p-slow" ] ~docv:"P" ~doc:"Probability of an artificial slowdown per attempt.")
  in
  let slow_ms =
    Arg.(
      value & opt float 20.0
      & info [ "slow-ms" ] ~docv:"MS" ~doc:"Length of injected slowdowns.")
  in
  let run name input scale seed domains nq workers queue_cap retries backoff_ms
      deadline_ms cache_mb skew flavour open_loop rate sweep arrivals no_ctl
      metrics_out trace_out chaos_seed p_transient p_kill p_slow slow_ms =
    let chaos =
      Some
        {
          Jp_chaos.none with
          Jp_chaos.seed = chaos_seed;
          p_transient;
          p_worker_kill = p_kill;
          p_slowdown = p_slow;
          slowdown_s = slow_ms /. 1e3;
        }
    in
    run_service ~name ~input ~scale ~seed ~domains ~nq ~workers ~queue_cap
      ~retries ~backoff_ms ~deadline_ms ~chaos ~cache_mb ~skew ~flavour
      ~open_loop ~rate ~sweep ~arrivals ~no_ctl ~metrics_out ~trace_out
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Like $(b,serve), but with deterministic chaos injection: transient \
          faults, worker-domain deaths and slowdowns seeded by \
          $(b,--chaos-seed).  Every completed query must still match the \
          fault-free answer (possibly after retries or degradation) — wrong \
          results exit non-zero.")
    Term.(
      const run $ dataset $ input_file $ scale $ seed $ domains $ queries_n
      $ workers_arg $ queue_cap $ retries_arg $ backoff_ms $ deadline_ms
      $ cache_mb_arg $ query_skew $ flavour_arg $ open_loop_flag $ rate_arg
      $ sweep_arg $ arrivals_arg $ no_ctl_flag $ metrics_out_arg
      $ trace_out_arg $ chaos_seed $ p_transient $ p_kill $ p_slow $ slow_ms)

let calibrate_cmd =
  let run () =
    let m = Jp_matrix.Cost.calibrate ~quick:false () in
    Printf.printf "Ts (sequential access)      %.3e s\n" m.Jp_matrix.Cost.ts;
    Printf.printf "Tm (allocation per 32B)     %.3e s\n" m.Jp_matrix.Cost.tm;
    Printf.printf "TI (join tuple processing)  %.3e s\n" m.Jp_matrix.Cost.ti;
    Printf.printf "count MM (per 62-bit word)  %.3e s\n" m.Jp_matrix.Cost.count_word;
    Printf.printf "bool MM  (per 62-bit word)  %.3e s\n" m.Jp_matrix.Cost.bool_word;
    Printf.printf "cores                       %d\n" m.Jp_matrix.Cost.cores
  in
  Cmd.v
    (Cmd.info "calibrate" ~doc:"Measure the Table-1 machine constants.")
    Term.(const run $ const ())

let () =
  let doc = "fast join-project query evaluation using matrix multiplication" in
  let info = Cmd.info "joinproj" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        datasets_cmd;
        explain_cmd;
        join_cmd;
        star_cmd;
        ssj_cmd;
        scj_cmd;
        bsi_cmd;
        serve_cmd;
        stress_cmd;
        profile_cmd;
        query_cmd;
        export_cmd;
        stats_cmd;
        calibrate_cmd;
      ]
  in
  (* User errors (bad -d/-i, k < 2, unreadable files, unknown subcommand)
     are one-line messages with a usage hint and exit code 2 — never
     backtraces.  [~catch:false] lets Failure/Sys_error reach us instead
     of cmdliner's backtrace printer; parse errors (cmdliner's own exit
     124) are folded into the same code. *)
  let code =
    try Cmd.eval ~catch:false group with
    | Failure msg | Sys_error msg ->
      Printf.eprintf "joinproj: error: %s\n" msg;
      Printf.eprintf "Run 'joinproj --help' or 'joinproj COMMAND --help' for usage.\n";
      2
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
