(* FIG4a/4b/4d-4g and Example 4: join processing for the 2-path and star
   queries. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Presets = Jp_workload.Presets
module Two_path = Joinproj.Two_path
module Star = Joinproj.Star
module Tablefmt = Jp_util.Tablefmt

(* FIG4a: two-path self-join, single core, all engines x all datasets. *)
let fig4a cfg =
  Bench_common.section "FIG4a: two-path query, 1 core (seconds)";
  let engines =
    [
      ("MMJoin", fun r -> Pairs.count (Two_path.project ~r ~s:r ()));
      ( "Non-MMJoin",
        fun r ->
          Pairs.count (Two_path.project ~strategy:Two_path.Combinatorial ~r ~s:r ()) );
      ( "WCOJ-dedup (X)",
        fun r -> Pairs.count (Jp_baselines.Fulljoin.two_path ~r ~s:r ()) );
      ( "HashJoin (PG)",
        fun r -> Pairs.count (Jp_baselines.Hash_join.two_path ~r ~s:r) );
      ( "SortMerge (MY)",
        fun r -> Pairs.count (Jp_baselines.Sortmerge_join.two_path ~r ~s:r) );
      ( "Bitset (EH)",
        fun r -> Pairs.count (Jp_baselines.Bitset_engine.two_path ~r ~s:r ()) );
    ]
  in
  let header = "dataset" :: List.map fst engines @ [ "|OUT|" ] in
  let rows =
    List.map
      (fun name ->
        let r = Bench_common.dataset cfg name in
        let cells, sizes =
          List.split
            (List.map
               (fun (ename, f) ->
                 Bench_common.timed_cell
                   ~label:(Printf.sprintf "%s/%s" (Presets.to_string name) ename)
                   cfg
                   (fun () -> f r))
               engines)
        in
        Bench_common.check_consistent cfg ~label:(Presets.to_string name) sizes;
        (Presets.to_string name :: cells)
        @ [ Tablefmt.big_int (List.hd sizes) ])
      Presets.all
  in
  Tablefmt.print ~header ~rows;
  Bench_common.note
    "paper shape: MMJoin fastest on dense data (up to ~50x vs RDBMS-style";
  Bench_common.note
    "engines); on sparse dblp/roadnet the optimizer falls back to the plain join."

(* FIG4b: star query with k=3 relations, single core.  Like the paper, we
   take a sample of each relation so the star join result stays in main
   memory (25% of the 2-path scale). *)
let star_sample cfg name = Presets.load ~scale:(0.25 *. cfg.Bench_common.scale) name

let fig4b cfg =
  Bench_common.section "FIG4b: star query (k=3, 25% samples), 1 core (seconds)";
  let results =
    List.map
      (fun name ->
        let r = star_sample cfg name in
        let rels = [| r; r; r |] in
        let mm, n1 =
          Bench_common.timed_run
            ~label:(Presets.to_string name ^ "/MMJoin")
            cfg
            (fun () ->
              Jp_relation.Tuples.count (Star.project ~strategy:Star.Matrix rels))
        in
        let comb, n2 =
          Bench_common.timed_run
            ~label:(Presets.to_string name ^ "/Non-MMJoin")
            cfg
            (fun () ->
              Jp_relation.Tuples.count (Star.project ~strategy:Star.Combinatorial rels))
        in
        Bench_common.check_consistent cfg ~label:(Presets.to_string name) [ n1; n2 ];
        (name, mm, comb, n1))
      Presets.all
  in
  Tablefmt.print ~header:[ "dataset"; "MMJoin"; "Non-MMJoin"; "|OUT|" ]
    ~rows:
      (List.map
         (fun (name, mm, comb, out) ->
           [
             Presets.to_string name;
             Tablefmt.seconds mm;
             Tablefmt.seconds comb;
             Tablefmt.big_int out;
           ])
         results);
  let dense = List.filter (fun (name, _, _, _) -> Presets.is_dense name) results in
  let faster = List.filter (fun (_, mm, comb, _) -> mm < comb) dense in
  Bench_common.note
    "paper shape: matrix multiplication beats the combinatorial heavy part on";
  Bench_common.note
    "dense data; this run: MMJoin faster on %d of the %d dense datasets%s."
    (List.length faster) (List.length dense)
    (match faster with
    | [] -> ""
    | _ ->
      " ("
      ^ String.concat ", "
          (List.map (fun (name, _, _, _) -> Presets.to_string name) faster)
      ^ ")")

(* FIG4d/4e: two-path multicore on jokes and words. *)
let fig4de cfg =
  Bench_common.section "FIG4d/4e: two-path query vs cores (jokes, words)";
  let datasets = [ Presets.Jokes; Presets.Words ] in
  let header =
    "cores" :: List.concat_map (fun d ->
        [ Presets.to_string d ^ " MMJoin"; Presets.to_string d ^ " Non-MM" ])
      datasets
  in
  let rows =
    List.map
      (fun cores ->
        string_of_int cores
        :: List.concat_map
             (fun d ->
               let r = Bench_common.dataset cfg d in
               let mm =
                 Bench_common.time cfg (fun () ->
                     Two_path.project ~domains:cores ~r ~s:r ())
               in
               let comb =
                 Bench_common.time cfg (fun () ->
                     Two_path.project ~domains:cores
                       ~strategy:Two_path.Combinatorial ~r ~s:r ())
               in
               [ Tablefmt.seconds mm; Tablefmt.seconds comb ])
             datasets)
      cfg.Bench_common.cores
  in
  Tablefmt.print ~header ~rows;
  if Jp_parallel.Pool.available_cores () = 1 then
    Bench_common.note "NOTE: 1 physical CPU here; speedups are flat by construction."

(* FIG4f/4g: star multicore on jokes and words (sampled like the paper). *)
let fig4fg cfg =
  Bench_common.section "FIG4f/4g: star query (k=3) vs cores (jokes, words)";
  let datasets =
    [
      (Presets.Jokes, star_sample cfg Presets.Jokes);
      (Presets.Words, star_sample cfg Presets.Words);
    ]
  in
  let header =
    "cores" :: List.concat_map (fun (d, _) ->
        [ Presets.to_string d ^ " MMJoin"; Presets.to_string d ^ " Non-MM" ])
      datasets
  in
  let rows =
    List.map
      (fun cores ->
        string_of_int cores
        :: List.concat_map
             (fun (_, r) ->
               let rels = [| r; r; r |] in
               let mm =
                 Bench_common.time cfg (fun () ->
                     Star.project ~domains:cores ~strategy:Star.Matrix rels)
               in
               let comb =
                 Bench_common.time cfg (fun () ->
                     Star.project ~domains:cores ~strategy:Star.Combinatorial rels)
               in
               [ Tablefmt.seconds mm; Tablefmt.seconds comb ])
             datasets)
      cfg.Bench_common.cores
  in
  Tablefmt.print ~header ~rows

(* EX4: the |OUT| ~ N^1.5 star regime of Example 4.  At paper scale the
   theoretical point is the heavy part's sub-quadratic matrix evaluation;
   at this container's scale the shared light passes dominate both
   strategies (FIG4b carries the MM-vs-combinatorial comparison), so this
   experiment reports the measured growth exponent of the output-sensitive
   evaluation against Lemma 2's O(N^2) combinatorial worst-case bound. *)
let example4 cfg =
  Bench_common.section "EX4: star (k=3) growth exponent, |OUT| ~ N^1.5 regime";
  let sizes = [ 30; 60; 90 ] in
  let measure members =
    let r =
      Jp_workload.Generate.community_graph ~seed:9 ~communities:4 ~members
        ~p_intra:0.3 ()
    in
    let n = Relation.size r in
    let rels = [| r; r; r |] in
    let out = ref 0 in
    let t_mm =
      Bench_common.time ~label:(Printf.sprintf "N=%d/MMJoin" members) cfg
        (fun () ->
          out := Jp_relation.Tuples.count (Star.project ~strategy:Star.Matrix rels))
    in
    let t_comb =
      Bench_common.time ~label:(Printf.sprintf "N=%d/Non-MMJoin" members) cfg
        (fun () -> Star.project ~strategy:Star.Combinatorial rels)
    in
    (n, !out, t_mm, t_comb)
  in
  let results = List.map measure sizes in
  let rows =
    List.map
      (fun (n, out, mm, comb) ->
        [
          Tablefmt.big_int n;
          Tablefmt.big_int out;
          Tablefmt.seconds mm;
          Tablefmt.seconds comb;
        ])
      results
  in
  Tablefmt.print ~header:[ "N (edges)"; "|OUT|"; "MMJoin"; "Non-MMJoin" ] ~rows;
  (match (results, List.rev results) with
  | (n0, _, mm0, _) :: _, (n1, _, mm1, _) :: _ when n1 > n0 ->
    let exponent = log (mm1 /. mm0) /. log (float_of_int n1 /. float_of_int n0) in
    Bench_common.note
      "measured growth exponent t ~ N^%.2f (Lemma 2's combinatorial bound is N^2," exponent;
    Bench_common.note
      "the theoretical omega=2 target N^1.875); the MM-vs-combinatorial heavy-part";
    Bench_common.note "comparison at realistic density is FIG4b."
  | _ -> ())
