module Boolmat = Jp_matrix.Boolmat
module Intmat = Jp_matrix.Intmat
module Tile = Jp_tile
module Cancel = Jp_util.Cancel

let random_boolmat seed ~rows ~cols ~density =
  let g = Jp_util.Rng.create seed in
  let m = Boolmat.create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Jp_util.Rng.float g 1.0 < density then Boolmat.set m i j
    done
  done;
  m

let cfg ?budget_bytes ?(tile_bits = 4) () = Tile.config ~tile_bits ?budget_bytes ()

(* Tiled vs the Boolmat reference on dimensions that are not tile
   multiples: boundary tiles are ragged on every side. *)
let test_mul_matches_flat () =
  let a = random_boolmat 1 ~rows:70 ~cols:131 ~density:0.08 in
  let b = random_boolmat 2 ~rows:131 ~cols:90 ~density:0.08 in
  let tiled =
    Tile.mul (cfg ()) (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)
  in
  Alcotest.(check bool) "tiled = flat" true
    (Boolmat.equal tiled (Boolmat.mul a b))

let test_count_matches_flat () =
  let a = random_boolmat 3 ~rows:53 ~cols:117 ~density:0.15 in
  let b = random_boolmat 4 ~rows:41 ~cols:117 ~density:0.15 in
  let tiled =
    Tile.count_product (cfg ())
      (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)
  in
  Alcotest.(check bool) "tiled = flat" true
    (Intmat.equal tiled (Boolmat.count_product a b))

let test_tile_bits_sweep () =
  let a = random_boolmat 5 ~rows:97 ~cols:64 ~density:0.1 in
  let b = random_boolmat 6 ~rows:64 ~cols:129 ~density:0.1 in
  let expect = Boolmat.mul a b in
  List.iter
    (fun bits ->
      let got =
        Tile.mul
          (cfg ~tile_bits:bits ())
          (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)
      in
      Alcotest.(check bool)
        (Printf.sprintf "tile_bits=%d" bits)
        true (Boolmat.equal got expect))
    [ 4; 5; 6; 7; 8 ]

(* Matrices smaller than one tile take the single-tile degenerate
   schedule; empty operands produce empty (all-zero / zero-dim) results. *)
let test_single_tile_and_empty () =
  let a = random_boolmat 7 ~rows:9 ~cols:11 ~density:0.3 in
  let b = random_boolmat 8 ~rows:11 ~cols:5 ~density:0.3 in
  let got =
    Tile.mul (cfg ~tile_bits:8 ())
      (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)
  in
  Alcotest.(check bool) "single tile" true (Boolmat.equal got (Boolmat.mul a b));
  let z = Boolmat.create ~rows:6 ~cols:13 in
  let zb = Boolmat.create ~rows:13 ~cols:4 in
  let got =
    Tile.mul (cfg ()) (Tile.Source.of_boolmat z) (Tile.Source.of_boolmat zb)
  in
  Alcotest.(check int) "all-empty tiles" 0 (Boolmat.nnz got);
  let e = Boolmat.create ~rows:0 ~cols:0 in
  let got = Tile.mul (cfg ()) (Tile.Source.of_boolmat e) (Tile.Source.of_boolmat e) in
  Alcotest.(check int) "zero-dim" 0 (Boolmat.rows got)

let test_parallel_matches_sequential () =
  let a = random_boolmat 9 ~rows:80 ~cols:100 ~density:0.1 in
  let b = random_boolmat 10 ~rows:100 ~cols:77 ~density:0.1 in
  let sa = Tile.Source.of_boolmat a and sb = Tile.Source.of_boolmat b in
  Alcotest.(check bool) "mul domains=4 = domains=1" true
    (Boolmat.equal (Tile.mul ~domains:4 (cfg ()) sa sb)
       (Tile.mul ~domains:1 (cfg ()) sa sb));
  let c = random_boolmat 11 ~rows:60 ~cols:90 ~density:0.2 in
  let d = random_boolmat 12 ~rows:50 ~cols:90 ~density:0.2 in
  let sc = Tile.Source.of_boolmat c and sd = Tile.Source.of_boolmat d in
  Alcotest.(check bool) "count domains=4 = domains=1" true
    (Intmat.equal
       (Tile.count_product ~domains:4 (cfg ()) sc sd)
       (Tile.count_product ~domains:1 (cfg ()) sc sd))

let test_dim_mismatch () =
  let a = Boolmat.create ~rows:2 ~cols:3 and b = Boolmat.create ~rows:5 ~cols:4 in
  Alcotest.check_raises "mul"
    (Invalid_argument "Jp_tile.mul: dimension mismatch (2x3 . 5x4)") (fun () ->
      ignore
        (Tile.mul (cfg ()) (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)));
  Alcotest.check_raises "count_product"
    (Invalid_argument "Jp_tile.count_product: inner dim mismatch (2x3 . (5x4)T)")
    (fun () ->
      ignore
        (Tile.count_product (cfg ())
           (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)))

let tile_counters () =
  List.filter
    (fun (name, _) -> String.length name >= 5 && String.sub name 0 5 = "tile.")
    (Jp_obs.counter_values ())

let with_obs f =
  Jp_obs.reset ();
  Jp_obs.enable ();
  Fun.protect ~finally:(fun () -> Jp_obs.disable (); Jp_obs.reset ()) f

(* A budget far below the operands' total tile bytes forces eviction and
   rebuild mid-product; the result must not change, the resident peak
   must respect the cap, and — at domains = 1, where the fetch order is
   fixed — the whole build/hit/evict trace must be reproducible. *)
let test_eviction_determinism () =
  let a = random_boolmat 13 ~rows:128 ~cols:128 ~density:0.2 in
  let b = random_boolmat 14 ~rows:128 ~cols:128 ~density:0.2 in
  let sa = Tile.Source.of_boolmat a and sb = Tile.Source.of_boolmat b in
  let budget = 2048 in
  let expect = Boolmat.mul a b in
  let run () =
    with_obs (fun () ->
        let got = Tile.mul (cfg ~budget_bytes:budget ()) sa sb in
        Alcotest.(check bool) "capped = flat" true (Boolmat.equal got expect);
        tile_counters ())
  in
  let first = run () in
  let evicted = try List.assoc "tile.evict" first with Not_found -> 0 in
  let peak = try List.assoc "tile.peak_bytes" first with Not_found -> 0 in
  Alcotest.(check bool) "budget forces eviction" true (evicted > 0);
  Alcotest.(check bool)
    (Printf.sprintf "peak %d <= budget %d" peak budget)
    true (peak <= budget);
  Alcotest.(check (list (pair string int))) "trace reproducible" first (run ())

(* With no budget every operand tile is built exactly once and the
   store footprint drains back to zero at the end of the product. *)
let test_store_accounting () =
  let a = random_boolmat 15 ~rows:64 ~cols:48 ~density:0.2 in
  let b = random_boolmat 16 ~rows:48 ~cols:64 ~density:0.2 in
  let counters =
    with_obs (fun () ->
        ignore
          (Tile.mul (cfg ())
             (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b));
        tile_counters ())
  in
  let get k = try List.assoc k counters with Not_found -> 0 in
  (* Capped at 16: 4 row blocks x 2 word-aligned (62-wide) column
     blocks of output; without a budget the inner dimension is one
     block, so 4 a-tiles + 2 b-tiles. *)
  Alcotest.(check int) "builds" 6 (get "tile.build");
  Alcotest.(check int) "products" 8 (get "tile.product");
  Alcotest.(check int) "no evictions" 0 (get "tile.evict");
  Alcotest.(check bool) "hits" true (get "tile.store_hit" > 0);
  Alcotest.(check int) "footprint drained" 0 (get "tile.bytes");
  Alcotest.(check bool) "peak recorded" true (get "tile.peak_bytes" > 0)

let test_checkpoint_and_cancel () =
  let a = random_boolmat 19 ~rows:64 ~cols:64 ~density:0.2 in
  let sa = Tile.Source.of_boolmat a in
  let ticks = ref 0 in
  ignore
    (Tile.mul ~checkpoint:(fun () -> Stdlib.incr ticks) (cfg ()) sa sa);
  (* 4 row blocks x 2 word-aligned column blocks at a 16 cap. *)
  Alcotest.(check int) "one checkpoint per output tile" 8 !ticks;
  let c = Cancel.create () in
  Cancel.cancel c;
  Alcotest.check_raises "cancelled" (Cancel.Cancelled Cancel.Requested)
    (fun () -> ignore (Tile.mul ~cancel:c (cfg ()) sa sa))

(* Every cap, budget and domain count gives the reference product, over
   ragged shapes that include widths just below, at and above multiples
   of 62 (the boolean column tiles' word alignment). *)
let prop_matches_reference =
  let side =
    QCheck.Gen.(
      oneof [ int_range 0 140; oneofl [ 61; 62; 63; 123; 124; 125; 185; 186; 187 ] ])
  in
  let gen =
    QCheck.Gen.(
      pair (quad small_nat side side side)
        (triple (int_range 1 3) (int_range 4 10) bool))
  in
  let print ((seed, u, v, w), (domains, bits, tiny)) =
    Printf.sprintf "seed=%d u=%d v=%d w=%d domains=%d bits=%d tiny=%b" seed u v
      w domains bits tiny
  in
  QCheck.Test.make ~name:"tiled = reference over shapes, caps, budgets, domains"
    ~count:60 (QCheck.make ~print gen)
    (fun ((seed, u, v, w), (domains, bits, tiny)) ->
      let budget_bytes = if tiny then Some 2048 else None in
      let c = cfg ?budget_bytes ~tile_bits:bits () in
      let a = random_boolmat seed ~rows:u ~cols:v ~density:0.12 in
      let b = random_boolmat (seed + 1) ~rows:v ~cols:w ~density:0.12 in
      let bt = random_boolmat (seed + 2) ~rows:w ~cols:v ~density:0.12 in
      let src = Tile.Source.of_boolmat in
      Boolmat.equal (Boolmat.mul a b) (Tile.mul ~domains c (src a) (src b))
      && Intmat.equal
           (Boolmat.count_product a bt)
           (Tile.count_product ~domains c (src a) (src bt)))

let products f =
  with_obs (fun () ->
      ignore (f ());
      Jp_obs.value Jp_obs.C.tile_products)

(* The fitted shape, seen through the tile.product counter: one tile at
   domains = 1 up to the cap, at least 2·domains tiles once u >= 32·domains. *)
let test_fitted_shape () =
  let a = random_boolmat 21 ~rows:300 ~cols:70 ~density:0.1 in
  let b = random_boolmat 22 ~rows:70 ~cols:500 ~density:0.1 in
  let bt = random_boolmat 23 ~rows:500 ~cols:70 ~density:0.1 in
  let sa = Tile.Source.of_boolmat a
  and sb = Tile.Source.of_boolmat b
  and sbt = Tile.Source.of_boolmat bt in
  List.iter
    (fun bits ->
      let c = Tile.config ~tile_bits:bits () in
      Alcotest.(check int)
        (Printf.sprintf "one mul tile at cap 2^%d" bits)
        1
        (products (fun () -> Tile.mul c sa sb));
      Alcotest.(check int)
        (Printf.sprintf "one count tile at cap 2^%d" bits)
        1
        (products (fun () -> Tile.count_product c sa sbt)))
    [ 9; 10 ];
  List.iter
    (fun (domains, u, w) ->
      let a = random_boolmat (24 + u) ~rows:u ~cols:40 ~density:0.2 in
      let b = random_boolmat (25 + w) ~rows:40 ~cols:w ~density:0.2 in
      let bt = random_boolmat (26 + w) ~rows:w ~cols:40 ~density:0.2 in
      let sa = Tile.Source.of_boolmat a in
      let at_least what n =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d tiles >= %d at domains=%d, u=%d, w=%d" what n
             (2 * domains) domains u w)
          true
          (n >= 2 * domains)
      in
      at_least "mul"
        (products (fun () ->
             Tile.mul ~domains (Tile.config ()) sa (Tile.Source.of_boolmat b)));
      at_least "count"
        (products (fun () ->
             Tile.count_product ~domains (Tile.config ()) sa
               (Tile.Source.of_boolmat bt))))
    [ (2, 64, 3); (2, 200, 200); (3, 96, 1); (3, 300, 70) ]

(* A cancel token tripped from the pool's chunk hook after the first
   output tile stops the default-config heavy product (no [?tile])
   before its last tile, and the engine raises [Cancelled].  Above the
   2048 cap at domains = 1 and by the domain split at domains = 2 the
   product has several tiles. *)
let test_default_path_cancel () =
  let module Two_path = Joinproj.Two_path in
  let plan =
    {
      Joinproj.Optimizer.decision = Joinproj.Optimizer.Partitioned { d1 = 1; d2 = 1 };
      est_out = 1;
      join_size = 1;
      est_seconds = 0.0;
    }
  in
  List.iter
    (fun (domains, nx) ->
      let r = Gen.random_relation ~seed:nx ~nx ~ny:40 ~edges:(8 * nx) () in
      let total =
        products (fun () -> Two_path.project ~domains ~plan ~r ~s:r ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "several tiles at domains=%d (%d)" domains total)
        true (total >= 4);
      let cancel = Cancel.create () in
      let trip () =
        if Jp_obs.value Jp_obs.C.tile_products >= 1 then Cancel.cancel cancel
      in
      let ran =
        with_obs (fun () ->
            Jp_parallel.Pool.set_fault_hook (Some trip);
            Fun.protect
              ~finally:(fun () -> Jp_parallel.Pool.set_fault_hook None)
              (fun () ->
                Alcotest.check_raises "cancelled" (Cancel.Cancelled Cancel.Requested)
                  (fun () ->
                    ignore (Two_path.project ~domains ~plan ~cancel ~r ~s:r ())));
            Jp_obs.value Jp_obs.C.tile_products)
      in
      Alcotest.(check bool)
        (Printf.sprintf "stopped after %d of %d tiles at domains=%d" ran total
           domains)
        true
        (ran >= 1 && ran < total))
    [ (1, 2200); (2, 200) ]

let suite =
  [
    Alcotest.test_case "mul matches flat" `Quick test_mul_matches_flat;
    Alcotest.test_case "count matches flat" `Quick test_count_matches_flat;
    Alcotest.test_case "tile_bits sweep" `Quick test_tile_bits_sweep;
    Alcotest.test_case "single tile / empty" `Quick test_single_tile_and_empty;
    Alcotest.test_case "parallel = sequential" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "dim mismatch" `Quick test_dim_mismatch;
    Alcotest.test_case "eviction determinism" `Quick test_eviction_determinism;
    Alcotest.test_case "store accounting" `Quick test_store_accounting;
    Alcotest.test_case "checkpoint and cancel" `Quick test_checkpoint_and_cancel;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "fitted shape" `Quick test_fitted_shape;
    Alcotest.test_case "default-path cancel" `Quick test_default_path_cancel;
  ]
