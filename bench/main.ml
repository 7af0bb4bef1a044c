(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md's experiment index).

   Usage:
     dune exec bench/main.exe                       # everything
     dune exec bench/main.exe -- --only FIG4a,FIG5  # prefix filter
     dune exec bench/main.exe -- --scale 0.5        # smaller datasets
     dune exec bench/main.exe -- --quick            # fast smoke pass
     dune exec bench/main.exe -- --bechamel         # Bechamel kernel suite
     dune exec bench/main.exe -- --calibrate        # live cost model

   Run from the repository root: the optimizer's cost model is loaded
   from perfbench/machine.json unless --calibrate is given. *)

let experiments =
  [
    ("TAB2", Bench_datasets.table2);
    ("TAB1", Bench_matrix.calibration);
    ("FIG3a", Bench_matrix.fig3a);
    ("FIG3b", Bench_matrix.fig3b);
    ("FIG4a", Bench_join.fig4a);
    ("FIG4b", Bench_join.fig4b);
    ("FIG4c", Bench_scj.fig4c);
    ("FIG4de", Bench_join.fig4de);
    ("FIG4fg", Bench_join.fig4fg);
    ("FIG5abc", Bench_ssj.fig5abc);
    ("FIG5dgh", Bench_ssj.fig5dgh);
    ("FIG5ef-6a", Bench_ssj.ordered);
    ("FIG6bcd", Bench_bsi.fig6bcd);
    ("FIG7", Bench_scj.fig7);
    ("FIG8", Bench_ssj.fig8);
    ("EX4", Bench_join.example4);
    ("ABL-DEDUP", Bench_ablation.dedup);
    ("ABL-EST", Bench_ablation.estimators);
    ("ABL-THRESH", Bench_ablation.thresholds);
    ("ABL-KERNEL", Bench_ablation.kernels);
    ("ABL-SORT", Bench_ablation.sorts);
    ("ABL-DYNAMIC", Bench_ablation.dynamic);
    ("ABL-GUARD", Bench_ablation.guard);
    ("ABL-CHAOS", Bench_ablation.chaos);
    ("ABL-CACHE", Bench_ablation.semantic_cache);
    ("ABL-OBS", Bench_ablation.obs);
    ("ABL-CQ", Bench_ablation.cq);
    ("ABL-LOAD", Bench_ablation.load);
    ("ABL-TILE", Bench_ablation.tile);
  ]

(* The cost model perfbench pins, relative to the repository root. *)
let pinned_machine = Filename.concat "perfbench" "machine.json"

let () =
  let cfg = ref Bench_common.default_config in
  let bechamel = ref false in
  let calibrate = ref false in
  let json_out = ref None in
  let set_only s =
    cfg := { !cfg with Bench_common.only = String.split_on_char ',' s }
  in
  let args =
    [
      ( "--scale",
        Arg.Float (fun f -> cfg := { !cfg with Bench_common.scale = f }),
        "FACTOR dataset scale multiplier (default 1.0)" );
      ( "--repeats",
        Arg.Int (fun n -> cfg := { !cfg with Bench_common.repeats = n }),
        "N median-of-N timing (default 1)" );
      ("--only", Arg.String set_only, "TAGS comma-separated experiment id prefixes");
      ( "--quick",
        Arg.Unit
          (fun () ->
            (* quick passes double as CI smoke tests, so |OUT| disagreements
               must fail loudly *)
            cfg := { !cfg with Bench_common.scale = 0.35; Bench_common.strict = true }),
        " shrink datasets for a fast smoke pass (implies --strict)" );
      ( "--strict",
        Arg.Unit (fun () -> cfg := { !cfg with Bench_common.strict = true }),
        " treat cross-engine |OUT| disagreements as hard errors" );
      ( "--json",
        Arg.String (fun f -> json_out := Some f),
        "FILE write per-cell records (median seconds, checksum, counters) as JSON" );
      ("--bechamel", Arg.Set bechamel, " run the Bechamel kernel suite instead");
      ( "--calibrate",
        Arg.Set calibrate,
        " measure the cost model's machine constants live instead of loading \
         perfbench/machine.json" );
    ]
  in
  Arg.parse args
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "joinproj benchmark harness";
  let cfg = !cfg in
  Printf.printf
    "joinproj benchmarks — scale %.2f, %d core(s) available, repeats %d\n%!"
    cfg.Bench_common.scale
    (Jp_parallel.Pool.available_cores ())
    cfg.Bench_common.repeats;
  (* The optimizer's machine model: the pinned record by default, so
     plans and tile shapes do not move between runs; --calibrate measures
     it live, up front, so the cost is not charged to the first timed
     MMJoin cell. *)
  if !calibrate then ignore (Jp_matrix.Cost.machine ())
  else begin
    match Jp_matrix.Cost.load_machine pinned_machine with
    | Ok m -> Jp_matrix.Cost.set_machine m
    | Error e ->
      Printf.eprintf
        "%s\nrun from the repository root, or pass --calibrate\n%!" e;
      exit 2
  end;
  (* --json turns the engine counters on; each timed cell then snapshots
     their deltas into its record *)
  if !json_out <> None then Jp_obs.enable ();
  if !bechamel then Bench_kernels.run cfg.Bench_common.scale
  else begin
    (* Prefix match so that --only FIG4b also runs FIG4b-dense. *)
    let matches tag =
      cfg.Bench_common.only = []
      || List.exists
           (fun o ->
             let o = String.lowercase_ascii (String.trim o) in
             let t = String.lowercase_ascii tag in
             o <> ""
             && String.length o <= String.length t
             && String.sub t 0 (String.length o) = o)
           cfg.Bench_common.only
    in
    List.iter
      (fun (tag, f) ->
        if matches tag then begin
          Bench_common.set_experiment tag;
          f cfg
        end)
      experiments;
    (match !json_out with
    | Some path -> Bench_common.write_json ~path cfg
    | None -> ());
    print_newline ()
  end
