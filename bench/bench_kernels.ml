(* Bechamel micro-benchmarks: one Test.make per paper table/figure,
   measuring the kernel that dominates that experiment.  Run with
   `dune exec bench/main.exe -- --bechamel` for statistically robust
   per-kernel numbers (OLS over the run predictor). *)

open Bechamel
open Toolkit

module Relation = Jp_relation.Relation
module Boolmat = Jp_matrix.Boolmat
module Presets = Jp_workload.Presets

let random_boolmat seed n density =
  let g = Jp_util.Rng.create seed in
  let m = Boolmat.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Jp_util.Rng.float g 1.0 < density then Boolmat.set m i j
    done
  done;
  m

let tests scale =
  let jokes = lazy (Presets.load ~scale:(0.4 *. scale) Presets.Jokes) in
  let dblp = lazy (Presets.load ~scale:(0.4 *. scale) Presets.Dblp) in
  let a = lazy (random_boolmat 1 512 0.5) in
  let b = lazy (random_boolmat 2 512 0.5) in
  Test.make_grouped ~name:"kernels" ~fmt:"%s %s"
    [
      (* FIG3a/3b: the matrix product itself *)
      Test.make ~name:"fig3-bool-mm-512"
        (Staged.stage (fun () ->
             let a = Lazy.force a and b = Lazy.force b in
             ignore (Boolmat.mul a b)));
      Test.make ~name:"fig3-count-mm-512"
        (Staged.stage (fun () ->
             let a = Lazy.force a and b = Lazy.force b in
             ignore (Boolmat.count_product a b)));
      (* ABL-TILE: the tiled kernels across a tile-cap sweep (the
         Boolmat reference fig3 rows above are their baseline; a
         512-wide cap makes the 512x512 operand a single tile, pricing
         the pure schedule overhead) *)
      Test.make ~name:"abl-tile-bool-mm-512-t64"
        (Staged.stage (fun () ->
             let a = Lazy.force a and b = Lazy.force b in
             ignore
               (Jp_tile.mul
                  (Jp_tile.config ~tile_bits:6 ())
                  (Jp_tile.Source.of_boolmat a)
                  (Jp_tile.Source.of_boolmat b))));
      Test.make ~name:"abl-tile-bool-mm-512-t128"
        (Staged.stage (fun () ->
             let a = Lazy.force a and b = Lazy.force b in
             ignore
               (Jp_tile.mul
                  (Jp_tile.config ~tile_bits:7 ())
                  (Jp_tile.Source.of_boolmat a)
                  (Jp_tile.Source.of_boolmat b))));
      Test.make ~name:"abl-tile-bool-mm-512-t512"
        (Staged.stage (fun () ->
             let a = Lazy.force a and b = Lazy.force b in
             ignore
               (Jp_tile.mul
                  (Jp_tile.config ~tile_bits:9 ())
                  (Jp_tile.Source.of_boolmat a)
                  (Jp_tile.Source.of_boolmat b))));
      Test.make ~name:"abl-tile-count-mm-512-t64"
        (Staged.stage (fun () ->
             let a = Lazy.force a and b = Lazy.force b in
             ignore
               (Jp_tile.count_product
                  (Jp_tile.config ~tile_bits:6 ())
                  (Jp_tile.Source.of_boolmat a)
                  (Jp_tile.Source.of_boolmat b))));
      Test.make ~name:"abl-tile-count-mm-512-t128"
        (Staged.stage (fun () ->
             let a = Lazy.force a and b = Lazy.force b in
             ignore
               (Jp_tile.count_product
                  (Jp_tile.config ~tile_bits:7 ())
                  (Jp_tile.Source.of_boolmat a)
                  (Jp_tile.Source.of_boolmat b))));
      Test.make ~name:"abl-tile-count-mm-512-t512"
        (Staged.stage (fun () ->
             let a = Lazy.force a and b = Lazy.force b in
             ignore
               (Jp_tile.count_product
                  (Jp_tile.config ~tile_bits:9 ())
                  (Jp_tile.Source.of_boolmat a)
                  (Jp_tile.Source.of_boolmat b))));
      (* FIG4a: MMJoin vs the dedup-vector expansion on a dense family *)
      Test.make ~name:"fig4a-mmjoin-jokes"
        (Staged.stage (fun () ->
             let r = Lazy.force jokes in
             ignore (Joinproj.Two_path.project ~r ~s:r ())));
      Test.make ~name:"fig4a-nonmm-jokes"
        (Staged.stage (fun () ->
             let r = Lazy.force jokes in
             ignore
               (Joinproj.Two_path.project ~strategy:Joinproj.Two_path.Combinatorial
                  ~r ~s:r ())));
      (* FIG4b: star query heavy step *)
      Test.make ~name:"fig4b-star3-dblp"
        (Staged.stage (fun () ->
             let r = Lazy.force dblp in
             ignore (Joinproj.Star.project [| r; r; r |])));
      (* FIG5: SSJ counted join *)
      Test.make ~name:"fig5-mm-ssj-jokes-c2"
        (Staged.stage (fun () ->
             let r = Lazy.force jokes in
             ignore (Jp_ssj.Mm_ssj.join ~c:2 r)));
      (* FIG4c/FIG7: SCJ via counted join *)
      Test.make ~name:"fig4c-mm-scj-jokes"
        (Staged.stage (fun () ->
             let r = Lazy.force jokes in
             ignore (Jp_scj.Mm_scj.join r)));
      (* FIG6: one BSI batch *)
      Test.make ~name:"fig6-bsi-batch-jokes"
        (Staged.stage (fun () ->
             let r = Lazy.force jokes in
             let n = Relation.src_count r in
             let queries =
               Jp_workload.Generate.batch_queries ~seed:5 ~count:500 ~nx:n ~nz:n ()
             in
             ignore (Jp_bsi.Bsi.answer_batch ~r ~s:r queries)));
    ]

let run scale =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg instances (tests scale) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Bench_common.section "Bechamel kernels (ns/run, OLS on monotonic clock)";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> Printf.sprintf "%.0f" x
        | _ -> "n/a"
      in
      rows := [ name; est ] :: !rows)
    results;
  Jp_util.Tablefmt.print ~header:[ "kernel"; "ns/run" ]
    ~rows:(List.sort compare !rows)
