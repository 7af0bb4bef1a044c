(* Cross-library integration: run every engine / application end-to-end on
   small instances of the Table-2 presets and verify they all agree.  This
   is the safety net the benchmark harness relies on (its engines must
   produce identical |OUT| before their times are comparable). *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Presets = Jp_workload.Presets
module Tile = Jp_matrix.Tile

let small name = Presets.load ~scale:0.02 ~seed:7 name

let two_path_engines =
  [
    ("mmjoin", fun r -> Joinproj.Two_path.project ~r ~s:r ());
    ( "nonmm",
      fun r ->
        Joinproj.Two_path.project ~strategy:Joinproj.Two_path.Combinatorial ~r ~s:r () );
    ("wcoj", fun r -> Jp_baselines.Fulljoin.two_path ~r ~s:r ());
    ("hash", fun r -> Jp_baselines.Hash_join.two_path ~r ~s:r);
    ("sortmerge", fun r -> Jp_baselines.Sortmerge_join.two_path ~r ~s:r);
    ("bitset", fun r -> Jp_baselines.Bitset_engine.two_path ~r ~s:r ());
  ]

let test_two_path_engines_agree () =
  List.iter
    (fun name ->
      let r = small name in
      match two_path_engines with
      | [] -> assert false
      | (_, first) :: rest ->
        let reference = first r in
        List.iter
          (fun (engine, f) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s on %s" engine (Presets.to_string name))
              true
              (Pairs.equal reference (f r)))
          rest)
    Presets.all

let test_ssj_agree_on_presets () =
  List.iter
    (fun name ->
      let r = small name in
      let reference = Jp_ssj.Mm_ssj.join ~c:2 r in
      Alcotest.(check bool)
        (Printf.sprintf "sizeaware on %s" (Presets.to_string name))
        true
        (Pairs.equal reference (Jp_ssj.Size_aware.join ~c:2 r));
      Alcotest.(check bool)
        (Printf.sprintf "sizeaware++ on %s" (Presets.to_string name))
        true
        (Pairs.equal reference (Jp_ssj.Size_aware_pp.join ~c:2 r)))
    [ Presets.Dblp; Presets.Jokes; Presets.Image ]

let test_scj_agree_on_presets () =
  List.iter
    (fun name ->
      let r = small name in
      let reference = Jp_scj.Mm_scj.join r in
      List.iter
        (fun (algo, f) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s" algo (Presets.to_string name))
            true
            (Pairs.equal reference (f r)))
        [
          ("pretti", Jp_scj.Pretti.join);
          ("limit+", Jp_scj.Limit_plus.join ~limit:2);
          ("piejoin", fun r -> Jp_scj.Piejoin.join r);
        ])
    [ Presets.Roadnet; Presets.Words; Presets.Protein ]

let test_star_strategies_agree_on_presets () =
  List.iter
    (fun name ->
      let r = small name in
      let rels = [| r; r; r |] in
      Alcotest.(check bool)
        (Printf.sprintf "star on %s" (Presets.to_string name))
        true
        (Testkit.Tuples.equal
           (Joinproj.Star.project ~strategy:Joinproj.Star.Matrix rels)
           (Joinproj.Star.project ~strategy:Joinproj.Star.Combinatorial rels)))
    [ Presets.Dblp; Presets.Roadnet; Presets.Words ]

let test_bsi_strategies_agree () =
  let r = small Presets.Jokes in
  let n = Relation.src_count r in
  let queries = Jp_workload.Generate.batch_queries ~seed:3 ~count:200 ~nx:n ~nz:n () in
  let mm = Jp_bsi.Bsi.answer_batch ~strategy:Jp_bsi.Bsi.Mm ~r ~s:r queries in
  let comb = Jp_bsi.Bsi.answer_batch ~strategy:Jp_bsi.Bsi.Combinatorial ~r ~s:r queries in
  Alcotest.(check bool) "mm = combinatorial answers" true (mm = comb)

(* Guarded variants join the same cross-engine matrix: under every
   injected misestimation factor the guard may re-route mid-query, but
   |OUT| (and the pairs themselves) must stay those of the unguarded
   engines above. *)
let guard_factors = [ 0.01; 1.0; 100.0 ]

let guard_of f =
  Jp_adaptive.Guard.with_inject (Testkit.Inject.uniform f)
    Jp_adaptive.Guard.default

let test_guarded_two_path_agrees () =
  List.iter
    (fun name ->
      let r = small name in
      let reference = Joinproj.Two_path.project ~r ~s:r () in
      List.iter
        (fun f ->
          let guard = guard_of f in
          List.iter
            (fun (engine, out) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s x%g on %s" engine f (Presets.to_string name))
                true
                (Pairs.equal reference out))
            [
              ("guarded mm", Joinproj.Two_path.project ~guard ~r ~s:r ());
              ( "guarded nonmm",
                Joinproj.Two_path.project
                  ~strategy:Joinproj.Two_path.Combinatorial ~guard ~r ~s:r () );
            ])
        guard_factors)
    Presets.all

let test_guarded_star_agrees () =
  List.iter
    (fun name ->
      let r = small name in
      let rels = [| r; r; r |] in
      let reference = Joinproj.Star.project rels in
      List.iter
        (fun (label, guard) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s" label (Presets.to_string name))
            true
            (Testkit.Tuples.equal reference
               (Joinproj.Star.project ~guard rels)))
        [
          ("guarded", Jp_adaptive.Guard.default);
          ("budget 0", Jp_adaptive.Guard.with_budget_ms 0.0 Jp_adaptive.Guard.default);
        ])
    [ Presets.Dblp; Presets.Words ]

let test_guarded_ssj_agrees () =
  List.iter
    (fun name ->
      let r = small name in
      let reference = Jp_ssj.Mm_ssj.join ~c:2 r in
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "guarded ssj x%g on %s" f (Presets.to_string name))
            true
            (Pairs.equal reference (Jp_ssj.Mm_ssj.join ~guard:(guard_of f) ~c:2 r)))
        guard_factors)
    [ Presets.Dblp; Presets.Jokes; Presets.Image ]

let test_guarded_scj_agrees () =
  List.iter
    (fun name ->
      let r = small name in
      let reference = Jp_scj.Mm_scj.join r in
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "guarded scj x%g on %s" f (Presets.to_string name))
            true
            (Pairs.equal reference (Jp_scj.Mm_scj.join ~guard:(guard_of f) r)))
        guard_factors)
    [ Presets.Roadnet; Presets.Words ]

let test_guarded_bsi_agrees () =
  let r = small Presets.Jokes in
  let n = Relation.src_count r in
  let queries = Jp_workload.Generate.batch_queries ~seed:3 ~count:200 ~nx:n ~nz:n () in
  let reference = Jp_bsi.Bsi.answer_batch ~r ~s:r queries in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "guarded bsi x%g" f)
        true
        (Jp_bsi.Bsi.answer_batch ~guard:(guard_of f) ~r ~s:r queries = reference))
    guard_factors

(* Served variants join the matrix too: routing a query through
   Jp_service (worker domain, cancel token, ticket) must hand back the
   same pairs as calling the engine directly. *)
let test_served_two_path_agrees () =
  let svc = Jp_service.create Jp_service.default in
  Fun.protect
    ~finally:(fun () -> Jp_service.shutdown svc)
    (fun () ->
      List.iter
        (fun name ->
          let r = small name in
          let reference = Joinproj.Two_path.project ~r ~s:r () in
          List.iter
            (fun (engine, run) ->
              let tk =
                Jp_service.submit svc (fun ~cancel ~attempt:_ ~degraded:_ ->
                    run ~cancel r)
              in
              match (Jp_service.await tk).Jp_service.outcome with
              | Ok pairs ->
                Alcotest.(check bool)
                  (Printf.sprintf "served %s on %s" engine (Presets.to_string name))
                  true
                  (Pairs.equal reference pairs)
              | Error e ->
                Alcotest.failf "served %s on %s: %s" engine
                  (Presets.to_string name)
                  (Jp_service.error_to_string e))
            [
              ("mmjoin", fun ~cancel r -> Joinproj.Two_path.project ~cancel ~r ~s:r ());
              ( "nonmm",
                fun ~cancel r ->
                  Joinproj.Two_path.project
                    ~strategy:Joinproj.Two_path.Combinatorial ~cancel ~r ~s:r () );
            ])
        Presets.all)

(* Open-loop served row: traffic arrives from a seeded schedule faster
   than it is answered, with the overload controller armed and a real
   deadline, so any mix of Ok / Shed / Expired_in_queue / Deadline can
   come back depending on machine speed.  The contract is load-
   independent: every Ok must be byte-identical to the unloaded engine,
   and everything else must be one of the typed load-control errors. *)
let test_open_loop_served_agrees () =
  let cfg =
    { Jp_service.default with
      Jp_service.queue_capacity = 64;
      Jp_service.controller = Some Jp_service.Overload.default }
  in
  List.iter
    (fun name ->
      let r = small name in
      let ds = Presets.to_string name in
      let reference = Joinproj.Two_path.project ~r ~s:r () in
      let svc = Jp_service.create cfg in
      Fun.protect
        ~finally:(fun () -> Jp_service.shutdown svc)
        (fun () ->
          let nq = 12 in
          let schedule = Jp_workload.Arrivals.schedule ~rate:300.0 ~count:nq () in
          let tickets = Array.make nq None in
          ignore
            (Jp_workload.Arrivals.drive ~now:Jp_util.Timer.now ~sleep:Unix.sleepf
               ~schedule (fun i ->
                 tickets.(i) <-
                   Some
                     (Jp_service.submit svc ~deadline_s:0.25
                        (fun ~cancel ~attempt:_ ~degraded ->
                          let guard =
                            if degraded then Some Jp_adaptive.Guard.safe else None
                          in
                          Joinproj.Two_path.project ?guard ~cancel ~r ~s:r ()))));
          Array.iteri
            (fun i tko ->
              match (Jp_service.await (Option.get tko)).Jp_service.outcome with
              | Ok pairs ->
                Alcotest.(check bool)
                  (Printf.sprintf "open-loop served on %s, query %d" ds i)
                  true
                  (Pairs.equal reference pairs)
              | Error
                  ( Jp_service.Shed | Jp_service.Expired_in_queue
                  | Jp_service.Deadline_exceeded | Jp_service.Overloaded ) ->
                ()
              | Error e ->
                Alcotest.failf "open-loop served on %s, query %d: %s" ds i
                  (Jp_service.error_to_string e))
            tickets))
    [ Presets.Jokes; Presets.Dblp ]

(* Cached variants join the matrix: every engine runs twice through one
   shared Jp_cache (the first pass fills it, the second hits), and both
   passes must return exactly the uncached reference.  One cache instance
   spans all presets — cross-dataset pollution must be impossible because
   every key carries the relations' fingerprints. *)
let test_cached_engines_agree () =
  let cache = Jp_cache.create () in
  List.iter
    (fun name ->
      let r = small name in
      let ds = Presets.to_string name in
      let memo () = Jp_cache.two_path_memo cache ~r ~s:r in
      let reference = Joinproj.Two_path.project ~r ~s:r () in
      for pass = 1 to 2 do
        Alcotest.(check bool)
          (Printf.sprintf "cached two-path pass %d on %s" pass ds)
          true
          (Pairs.equal reference
             (Joinproj.Two_path.project ~memo:(memo ()) ~r ~s:r ()))
      done;
      let counted_ref = Joinproj.Two_path.project_counts ~r ~s:r () in
      for pass = 1 to 2 do
        Alcotest.(check bool)
          (Printf.sprintf "cached counts pass %d on %s" pass ds)
          true
          (Testkit.Counted_pairs.equal counted_ref
             (Joinproj.Two_path.project_counts ~memo:(memo ()) ~r ~s:r ()))
      done;
      let ssj_ref = Jp_ssj.Mm_ssj.join ~c:2 r in
      for pass = 1 to 2 do
        Alcotest.(check bool)
          (Printf.sprintf "cached ssj pass %d on %s" pass ds)
          true
          (Pairs.equal ssj_ref (Jp_ssj.Mm_ssj.join ~cache ~c:2 r))
      done;
      let scj_ref = Jp_scj.Mm_scj.join r in
      for pass = 1 to 2 do
        Alcotest.(check bool)
          (Printf.sprintf "cached scj pass %d on %s" pass ds)
          true
          (Pairs.equal scj_ref (Jp_scj.Mm_scj.join ~cache r))
      done)
    Presets.all;
  let r = small Presets.Jokes in
  let n = Relation.src_count r in
  let queries = Jp_workload.Generate.batch_queries ~seed:3 ~count:200 ~nx:n ~nz:n () in
  let bsi_ref = Jp_bsi.Bsi.answer_batch ~r ~s:r queries in
  for pass = 1 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "cached bsi pass %d" pass)
      true
      (Jp_bsi.Bsi.answer_batch ~cache ~r ~s:r queries = bsi_ref)
  done

(* General-CQ rows: the decomposition planner joins the matrix.  Every
   pool query runs against brute force under each policy, and the
   guarded / cancelled / cached variants must be byte-identical to the
   plain run (same guarantee the two-path engines give above). *)
let cq_pool =
  [
    "Q(a, d) :- R(a, b), S(b, c), T(c, d)";
    "Q(a) :- R(a, b), S(c, b), T(c, d)";
    "Q(a, b, d) :- R(a, c), S(c, b), T(c, d)";
    "Q(a, c) :- R(a, b), S(c, b), T(c, d)";
  ]

let cq_catalog =
  lazy
    (List.map
       (fun (name, seed) ->
         (name, Gen.random_relation ~seed ~nx:6 ~ny:6 ~edges:14 ()))
       [ ("R", 21); ("S", 22); ("T", 23) ])

let cq_parse text =
  match Jp_query.Cq.parse text with
  | Ok q -> q
  | Error e -> Alcotest.failf "parse %s: %s" text e

let cq_run ?policy ?guard ?cancel ?cache text =
  let catalog = Lazy.force cq_catalog in
  match
    Jp_query.Engine.run ?policy ?guard ?cancel ?cache catalog (cq_parse text)
  with
  | Ok out -> Testkit.Tuples.to_list out
  | Error e -> Alcotest.failf "cq run %s: %s" text e

let test_cq_engine_agrees_with_brute () =
  let catalog = Lazy.force cq_catalog in
  List.iter
    (fun text ->
      let expect = Gen.brute_cq catalog (cq_parse text) in
      List.iter
        (fun (label, policy) ->
          Alcotest.(check (list (list int)))
            (Printf.sprintf "%s [%s]" text label)
            expect (cq_run ~policy text))
        [
          ("auto", Jp_query.Planner.Cost_gate);
          ("mm", Jp_query.Planner.Always_mm);
          ("yannakakis", Jp_query.Planner.Never_mm);
        ])
    cq_pool

let test_guarded_cq_agrees () =
  List.iter
    (fun text ->
      let reference = cq_run ~policy:Jp_query.Planner.Always_mm text in
      List.iter
        (fun f ->
          Alcotest.(check (list (list int)))
            (Printf.sprintf "guarded cq x%g %s" f text)
            reference
            (cq_run ~policy:Jp_query.Planner.Always_mm ~guard:(guard_of f) text))
        guard_factors;
      Alcotest.(check (list (list int)))
        (Printf.sprintf "safe-guarded cq %s" text)
        reference
        (cq_run ~policy:Jp_query.Planner.Always_mm ~guard:Jp_adaptive.Guard.safe
           text))
    cq_pool

let test_cancelled_cq_agrees () =
  List.iter
    (fun text ->
      let reference = cq_run text in
      let cancel = Jp_util.Cancel.create () in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "cancelled cq %s" text)
        reference (cq_run ~cancel text))
    cq_pool

let test_cached_cq_agrees () =
  let cache = Jp_cache.create () in
  List.iter
    (fun text ->
      let reference = cq_run ~policy:Jp_query.Planner.Always_mm text in
      for pass = 1 to 2 do
        Alcotest.(check (list (list int)))
          (Printf.sprintf "cached cq pass %d %s" pass text)
          reference
          (cq_run ~policy:Jp_query.Planner.Always_mm ~cache text)
      done)
    cq_pool

(* Capped tiles join the matrix: with a [?tile] config that caps the
   count product's tiles at 16 wide and sets a budget small enough to
   evict mid-product, counted projections must stay bit-equal to the
   default fitted shape.  The boolean projection, which ORs heavy rows
   and runs no tile kernel, must stay equal alone and stacked under the
   parallel / guarded / cancelled / cached capabilities. *)
let tiny_tile = Tile.config ~tile_bits:4 ~budget_bytes:8192 ()

let test_tiled_two_path_agrees () =
  let matrix = Joinproj.Two_path.Matrix in
  List.iter
    (fun name ->
      let ds = Presets.to_string name in
      let r = small name in
      let reference = Joinproj.Two_path.project ~strategy:matrix ~r ~s:r () in
      let check label out =
        Alcotest.(check bool)
          (Printf.sprintf "%s on %s" label ds)
          true (Pairs.equal reference out)
      in
      check "tiled"
        (Joinproj.Two_path.project ~strategy:matrix ~r ~s:r ());
      check "tiled 4 domains"
        (Joinproj.Two_path.project ~domains:4 ~strategy:matrix ~r ~s:r ());
      List.iter
        (fun f ->
          check
            (Printf.sprintf "tiled guarded x%g" f)
            (Joinproj.Two_path.project ~strategy:matrix ~guard:(guard_of f) ~r ~s:r ()))
        guard_factors;
      let cancel = Jp_util.Cancel.create () in
      check "tiled live-cancel"
        (Joinproj.Two_path.project ~strategy:matrix ~cancel ~r ~s:r ());
      let cache = Jp_cache.create () in
      for pass = 1 to 2 do
        check
          (Printf.sprintf "tiled cached pass %d" pass)
          (Joinproj.Two_path.project ~strategy:matrix
             ~memo:(Jp_cache.two_path_memo cache ~r ~s:r)
             ~r ~s:r ())
      done;
      let counted_ref =
        Joinproj.Two_path.project_counts ~strategy:matrix ~r ~s:r ()
      in
      let check_counted label out =
        Alcotest.(check bool)
          (Printf.sprintf "%s on %s" label ds)
          true
          (Testkit.Counted_pairs.equal counted_ref out)
      in
      check_counted "tiled counts"
        (Joinproj.Two_path.project_counts ~strategy:matrix ~tile:tiny_tile ~r
           ~s:r ());
      let ccache = Jp_cache.create () in
      for pass = 1 to 2 do
        check_counted
          (Printf.sprintf "tiled cached counts pass %d" pass)
          (Joinproj.Two_path.project_counts ~strategy:matrix
             ~memo:(Jp_cache.two_path_memo ccache ~r ~s:r)
             ~tile:tiny_tile ~r ~s:r ())
      done)
    Presets.all

let test_ordered_consistent_with_unordered () =
  let r = small Presets.Words in
  let c = 2 in
  let unordered = Pairs.count (Jp_ssj.Mm_ssj.join ~c r) in
  let ordered = Array.length (Jp_ssj.Ordered.via_counts ~c r) in
  Alcotest.(check int) "same pair count" unordered ordered

let suite =
  [
    Alcotest.test_case "two-path engines agree" `Quick test_two_path_engines_agree;
    Alcotest.test_case "ssj algorithms agree" `Quick test_ssj_agree_on_presets;
    Alcotest.test_case "scj algorithms agree" `Quick test_scj_agree_on_presets;
    Alcotest.test_case "star strategies agree" `Quick test_star_strategies_agree_on_presets;
    Alcotest.test_case "bsi strategies agree" `Quick test_bsi_strategies_agree;
    Alcotest.test_case "ordered vs unordered" `Quick test_ordered_consistent_with_unordered;
    Alcotest.test_case "guarded two-path agrees" `Quick test_guarded_two_path_agrees;
    Alcotest.test_case "guarded star agrees" `Quick test_guarded_star_agrees;
    Alcotest.test_case "guarded ssj agrees" `Quick test_guarded_ssj_agrees;
    Alcotest.test_case "guarded scj agrees" `Quick test_guarded_scj_agrees;
    Alcotest.test_case "guarded bsi agrees" `Quick test_guarded_bsi_agrees;
    Alcotest.test_case "served two-path agrees" `Quick test_served_two_path_agrees;
    Alcotest.test_case "open-loop served agrees" `Quick test_open_loop_served_agrees;
    Alcotest.test_case "cached engines agree" `Quick test_cached_engines_agree;
    Alcotest.test_case "tiled two-path agrees" `Quick test_tiled_two_path_agrees;
    Alcotest.test_case "cq engine = brute force" `Quick test_cq_engine_agrees_with_brute;
    Alcotest.test_case "guarded cq agrees" `Quick test_guarded_cq_agrees;
    Alcotest.test_case "cancelled cq agrees" `Quick test_cancelled_cq_agrees;
    Alcotest.test_case "cached cq agrees" `Quick test_cached_cq_agrees;
  ]
