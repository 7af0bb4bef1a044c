module Boolmat = Testkit.Boolmat
module Intmat = Testkit.Intmat
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

(* Tiled vs the naive integer reference on dimensions that are not tile
   multiples: boundary tiles are ragged on every side. *)
let test_mul_matches_flat () =
  let a = random_boolmat 1 ~rows:70 ~cols:131 ~density:0.08 in
  let b = random_boolmat 2 ~rows:131 ~cols:90 ~density:0.08 in
  let tiled =
    Tile.mul (cfg ()) (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)
  in
  Alcotest.(check bool) "tiled = flat" true
    (Boolmat.equal tiled (Boolmat.mul_reference a b))

let test_count_matches_flat () =
  let a = random_boolmat 3 ~rows:53 ~cols:117 ~density:0.15 in
  let b = random_boolmat 4 ~rows:41 ~cols:117 ~density:0.15 in
  let tiled =
    Tile.count_product (cfg ())
      (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)
  in
  Alcotest.(check bool) "tiled = flat" true
    (Intmat.equal tiled (Boolmat.count_reference a b))

let test_tile_bits_sweep () =
  let a = random_boolmat 5 ~rows:97 ~cols:64 ~density:0.1 in
  let b = random_boolmat 6 ~rows:64 ~cols:129 ~density:0.1 in
  let expect = Boolmat.mul_reference a b in
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
  Alcotest.(check bool) "single tile" true
    (Boolmat.equal got (Boolmat.mul_reference a b));
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
  let expect = Boolmat.mul_reference a b in
  let run () =
    with_obs (fun () ->
        let got = Tile.mul (cfg ~budget_bytes:budget ()) sa sb in
        Alcotest.(check bool) "capped = flat" true (Boolmat.equal got expect);
        (* evictions move the footprint gauge too, so it drains to zero *)
        Alcotest.(check int) "footprint drained" 0
          (Jp_obs.value Jp_obs.G.tile_bytes);
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
  let counters, resident =
    with_obs (fun () ->
        ignore
          (Tile.mul (cfg ())
             (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b));
        (tile_counters (), Jp_obs.value Jp_obs.G.tile_bytes))
  in
  let get k = try List.assoc k counters with Not_found -> 0 in
  (* Capped at 16: 4 row blocks x 2 word-aligned (62-wide) column
     blocks of output; without a budget the inner dimension is one
     block, so 4 a-tiles + 2 b-tiles. *)
  Alcotest.(check int) "builds" 6 (get "tile.build");
  Alcotest.(check int) "products" 8 (get "tile.product");
  Alcotest.(check int) "no evictions" 0 (get "tile.evict");
  Alcotest.(check bool) "hits" true (get "tile.store_hit" > 0);
  Alcotest.(check int) "footprint drained" 0 resident;
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
      Boolmat.equal (Boolmat.mul_reference a b)
        (Tile.mul ~domains c (src a) (src b))
      && Intmat.equal
           (Boolmat.count_reference a bt)
           (Tile.count_product ~domains c (src a) (src bt)))

(* The strict upper triangle of the count reference, as a full
   matrix: cell (i, l) for l > i, zero on and below the diagonal.
   [count_upper]'s triangle is read against it cell by cell through
   [Intmat.upper_get]. *)
let upper_reference a =
  let full = Boolmat.count_reference a a in
  let n = Boolmat.rows a in
  Intmat.of_arrays
    (Array.init n (fun i ->
         Array.init n (fun l -> if l > i then Intmat.get full i l else 0)))

(* [count_upper] over the same sweep as the products above: ragged
   sides, every domain count, cap and budget. *)
let prop_upper_matches_reference =
  let side =
    QCheck.Gen.(oneof [ int_range 0 140; oneofl [ 15; 16; 17; 31; 32; 33; 63; 64; 65 ] ])
  in
  let gen =
    QCheck.Gen.(
      pair (triple small_nat side side)
        (triple (int_range 1 3) (int_range 4 10) bool))
  in
  let print ((seed, u, v), (domains, bits, tiny)) =
    Printf.sprintf "seed=%d u=%d v=%d domains=%d bits=%d tiny=%b" seed u v
      domains bits tiny
  in
  QCheck.Test.make ~name:"count_upper = upper triangle of the reference"
    ~count:80 (QCheck.make ~print gen)
    (fun ((seed, u, v), (domains, bits, tiny)) ->
      let budget_bytes = if tiny then Some 2048 else None in
      let c = cfg ?budget_bytes ~tile_bits:bits () in
      let a = random_boolmat (seed + 40) ~rows:u ~cols:v ~density:0.15 in
      let expect = upper_reference a in
      let got = Tile.count_upper ~domains c (Tile.Source.of_boolmat a) in
      Intmat.dims got = Intmat.dims expect
      && List.for_all
           (fun i ->
             List.for_all
               (fun l -> Intmat.upper_get got i l = Intmat.get expect i l)
               (List.init u Fun.id))
           (List.init u Fun.id))

(* The transpose of a 0/1 matrix: [upper_planes a (transpose a)] is the
   set-similarity product A·Aᵀ. *)
let transpose m =
  let t = Boolmat.create ~rows:(Boolmat.cols m) ~cols:(Boolmat.rows m) in
  for i = 0 to Boolmat.rows m - 1 do
    Boolmat.iter_row m i (fun j -> Boolmat.set t j i)
  done;
  t

(* [planes] against min(A·Aᵀ cell, c) from the naive integer product:
   on every cell l > i exactly the first min(cell, c) planes hold it
   (the thermometer), and no plane holds a cell l <= i.  With c = 1 the
   one plane is also [mul a aᵀ] under the strict upper mask. *)
let planes_match a ~c planes =
  let u = Boolmat.rows a in
  let full = Boolmat.count_reference a a in
  Array.length planes = c
  && Array.for_all (fun p -> Boolmat.rows p = u && Boolmat.cols p = u) planes
  && List.for_all
       (fun i ->
         List.for_all
           (fun l ->
             let n = if l > i then min c (Intmat.get full i l) else 0 in
             List.for_all
               (fun j -> Boolmat.mem planes.(j) i l = (j < n))
               (List.init c Fun.id))
           (List.init u Fun.id))
       (List.init u Fun.id)
  && (c > 1
     ||
     let m = Tile.mul (cfg ()) (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat (transpose a)) in
     List.for_all
       (fun i ->
         List.filter (fun l -> l > i) (Boolmat.row_list m i) = Boolmat.row_list planes.(0) i)
       (List.init u Fun.id))

(* [upper_planes] over c in 1..6, ragged sides (inner widths below one
   word and across several, result widths on and around word and tile
   edges), tile caps 2^4, 2^6 and 2^11, domains 1 and 3, and no budget
   or a tiny one. *)
let prop_planes_match_reference =
  let side =
    QCheck.Gen.(oneof [ int_range 0 130; oneofl [ 1; 2; 15; 16; 17; 61; 62; 63; 124; 125; 187 ] ])
  in
  let gen =
    QCheck.Gen.(
      pair (triple small_nat side side)
        (quad (int_range 1 6) (oneofl [ 4; 6; 11 ]) (oneofl [ 1; 3 ]) bool))
  in
  let print ((seed, u, v), (c, bits, domains, tiny)) =
    Printf.sprintf "seed=%d u=%d v=%d c=%d bits=%d domains=%d tiny=%b" seed u v c
      bits domains tiny
  in
  QCheck.Test.make ~name:"upper_planes = min(A·Aᵀ, c) past the diagonal"
    ~count:80 (QCheck.make ~print gen)
    (fun ((seed, u, v), (c, bits, domains, tiny)) ->
      let budget_bytes = if tiny then Some 2048 else None in
      let a = random_boolmat (seed + 60) ~rows:u ~cols:v ~density:0.3 in
      let planes =
        Tile.upper_planes ~domains (cfg ?budget_bytes ~tile_bits:bits ())
          ~c (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat (transpose a))
      in
      planes_match a ~c planes)

(* A chunk hook that spins a seeded, varying number of times at every
   tile claim, so worker domains interleave their tiles differently on
   every call. *)
let seeded_yields seed =
  let claims = Atomic.make 0 in
  fun () ->
    let k = Atomic.fetch_and_add claims 1 in
    for _ = 1 to ((k + seed) * 2654435761) land 1023 do
      Domain.cpu_relax ()
    done

(* The domains = 3 plane products again, each under a seeded-yield pool
   hook: every plane is bit-equal to the single-domain product. *)
let test_planes_under_yields () =
  List.iter
    (fun (seed, u, v, c, bits, tiny) ->
      let a = random_boolmat seed ~rows:u ~cols:v ~density:0.3 in
      let sa = Tile.Source.of_boolmat a and sat = Tile.Source.of_boolmat (transpose a) in
      let budget_bytes = if tiny then Some 2048 else None in
      let config = cfg ?budget_bytes ~tile_bits:bits () in
      let expect = Tile.upper_planes ~domains:1 config ~c sa sat in
      let got =
        Jp_parallel.Pool.set_fault_hook (Some (seeded_yields seed));
        Fun.protect
          ~finally:(fun () -> Jp_parallel.Pool.set_fault_hook None)
          (fun () -> Tile.upper_planes ~domains:3 config ~c sa sat)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed=%d u=%d v=%d c=%d bits=%d tiny=%b" seed u v c bits tiny)
        true
        (Array.for_all2 Boolmat.equal expect got && planes_match a ~c got))
    [
      (1, 130, 70, 2, 4, false);
      (2, 187, 40, 3, 4, true);
      (3, 125, 200, 6, 6, false);
      (4, 63, 61, 1, 4, true);
      (5, 200, 130, 2, 11, false);
      (6, 90, 9, 4, 6, true);
    ]

(* Under a budget inner blocks are as wide as the tile side, and a block
   whose A or B tile is empty adds nothing: it must be skipped, an empty
   A tile before its B tile is built.  Here A (32×48, three 16-wide
   inner blocks) has ones only in blocks 0 and 1 and B (32×48) only in
   blocks 0 and 2, so only block 0 multiplies. *)
let test_count_skips_empty_blocks () =
  let g = Jp_util.Rng.create 31 in
  let blocky ~keep =
    let m = Boolmat.create ~rows:32 ~cols:48 in
    for i = 0 to 31 do
      for j = 0 to 47 do
        if keep (j / 16) && Jp_util.Rng.float g 1.0 < 0.4 then Boolmat.set m i j
      done
    done;
    m
  in
  let a = blocky ~keep:(fun k -> k <> 2) and b = blocky ~keep:(fun k -> k <> 1) in
  let c = cfg ~budget_bytes:100_000 () in
  let got, counters =
    with_obs (fun () ->
        let m =
          Tile.count_product c (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)
        in
        (m, Jp_obs.counter_values ()))
  in
  let get k = try List.assoc k counters with Not_found -> 0 in
  Alcotest.(check bool) "bit-equal" true
    (Intmat.equal got (Boolmat.count_reference a b));
  (* 2×2 output tiles of 16; per tile only block 0 runs: 16 rows × 16
     columns × one word.  Multiplying every block with a non-empty A
     tile (blocks 0 and 1) would take twice as many. *)
  let nonempty_rows k =
    List.length
      (List.filter
         (fun i ->
           let row = Boolmat.row a i in
           List.exists (fun j -> Jp_util.Bitset.mem row j) (List.init 16 (fun j -> (16 * k) + j)))
         (List.init 32 Fun.id))
  in
  let words_for k = nonempty_rows k * 2 * 16 in
  Alcotest.(check int) "word ops: block 0 only" (words_for 0)
    (get "mm.count_word_ops");
  Alcotest.(check bool) "fewer than with block 1" true
    (get "mm.count_word_ops" < words_for 0 + words_for 1);
  (* A tiles: 2 row blocks × 3 inner blocks; B tiles are built only
     where A's is not empty (blocks 0 and 1), 2 × 2. *)
  Alcotest.(check int) "no B tile behind an empty A tile" (6 + 4)
    (get "tile.build")

let products f =
  with_obs (fun () ->
      ignore (f ());
      Jp_obs.value Jp_obs.C.tile_products)

(* The fitted shape, seen through the tile.product counter: one tile at
   domains = 1 up to the cap, at least 2·domains scheduled tiles once
   u >= 32·domains (for the triangle product, counting only the tiles
   it runs). *)
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
               (Tile.Source.of_boolmat bt)));
      at_least "count_upper"
        (products (fun () -> Tile.count_upper ~domains (Tile.config ()) sa)))
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
      (* One domain claims tiles in order and re-checks the token after
         the chunk hook, so the tile whose claim trips it never runs. *)
      if domains = 1 then
        Alcotest.(check int)
          (Printf.sprintf "exactly one of %d tiles at domains=1" total)
          1 ran
      else
        Alcotest.(check bool)
          (Printf.sprintf "stopped after %d of %d tiles at domains=%d" ran
             total domains)
          true
          (ran >= 1 && ran < total))
    [ (1, 2200); (2, 200) ]

(* [mul_rows] hands every result row to the consumer exactly once, in
   ascending order, bit-equal to [mul]'s row, across caps, domain counts
   and ragged shapes that include empty sides. *)
let test_mul_rows_matches_mul () =
  List.iter
    (fun (bits, domains, (u, v, w)) ->
      let name = Printf.sprintf "bits=%d domains=%d %dx%dx%d" bits domains u v w in
      let a = random_boolmat (u + v) ~rows:u ~cols:v ~density:0.12 in
      let b = random_boolmat (v + w) ~rows:v ~cols:w ~density:0.12 in
      let sa = Tile.Source.of_boolmat a and sb = Tile.Source.of_boolmat b in
      let c = cfg ~tile_bits:bits () in
      let expect = Tile.mul ~domains c sa sb in
      let seen = ref [] in
      Tile.mul_rows ~domains c sa sb (fun i row ->
          seen := (i, Boolmat.row_list_of row) :: !seen);
      Alcotest.(check (list int))
        (name ^ ": every row once, ascending")
        (List.init u Fun.id)
        (List.rev_map fst !seen);
      Alcotest.(check bool)
        (name ^ ": rows = mul's")
        true
        (List.for_all (fun (i, row) -> row = Boolmat.row_list expect i) !seen))
    (List.concat_map
       (fun bits ->
         List.concat_map
           (fun domains ->
             List.map
               (fun shape -> (bits, domains, shape))
               [ (0, 5, 7); (9, 0, 4); (13, 17, 0); (1, 1, 1); (70, 131, 90);
                 (125, 62, 187); (200, 40, 63) ])
           [ 1; 3 ])
       [ 4; 6; 11 ])

(* A product whose u×w result is 32 times the 1 MiB band bound streams
   through one reused band: it completes, every row is right, and the
   bytes allocated stay a small fraction of the result's u·w/8.  Row i
   of A selects row (i mod v) of B, so each result row is a B row,
   checked without allocating. *)
let test_mul_rows_bounded () =
  let u = 16384 and v = 64 and w = 16384 in
  let b = Boolmat.create ~rows:v ~cols:w in
  for k = 0 to v - 1 do
    for t = 0 to 7 do
      Boolmat.set b k (((k * 251) + (t * 4099)) mod w)
    done
  done;
  let sa = Tile.Source.of_adjacency ~rows:u ~cols:v (fun i f -> f (i mod v)) in
  let sb = Tile.Source.of_boolmat b in
  let next = ref 0 and bad = ref 0 in
  let before = Gc.allocated_bytes () in
  Tile.mul_rows ~domains:1 (Tile.config ()) sa sb (fun i row ->
      let brow = Boolmat.row b (i mod v) in
      if i <> !next
         || Jp_util.Bitset.count row <> Jp_util.Bitset.count brow
         || Jp_util.Bitset.inter_count row brow <> Jp_util.Bitset.count brow
      then Stdlib.incr bad;
      Stdlib.incr next);
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "every row, in order" u !next;
  Alcotest.(check int) "rows = selected B rows" 0 !bad;
  let result_bytes = float_of_int (u * w / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f bytes < result/4 (%.0f)" allocated
       (result_bytes /. 4.0))
    true
    (allocated < result_bytes /. 4.0)

(* A product cancelled between tiles still drains its store: the
   resident footprint gauge reads zero after the [Cancelled]. *)
let test_cancel_drains_footprint () =
  let a = random_boolmat 41 ~rows:64 ~cols:64 ~density:0.2 in
  let sa = Tile.Source.of_boolmat a in
  List.iter
    (fun (what, product) ->
      let resident =
        with_obs (fun () ->
            let cancel = Cancel.create () in
            let trip () =
              if Jp_obs.value Jp_obs.C.tile_products >= 1 then Cancel.cancel cancel
            in
            Jp_parallel.Pool.set_fault_hook (Some trip);
            Fun.protect
              ~finally:(fun () -> Jp_parallel.Pool.set_fault_hook None)
              (fun () ->
                Alcotest.check_raises what (Cancel.Cancelled Cancel.Requested)
                  (fun () -> product cancel));
            Jp_obs.value Jp_obs.G.tile_bytes)
      in
      Alcotest.(check int) (what ^ ": footprint drained") 0 resident)
    [
      ("mul", fun cancel -> ignore (Tile.mul ~cancel (cfg ()) sa sa));
      ("mul_rows", fun cancel -> Tile.mul_rows ~domains:1 ~cancel (cfg ()) sa sa (fun _ _ -> ()));
      ("count_product", fun cancel -> ignore (Tile.count_product ~cancel (cfg ()) sa sa));
      ("count_upper", fun cancel -> ignore (Tile.count_upper ~cancel (cfg ()) sa));
      ("upper_planes", fun cancel ->
          ignore (Tile.upper_planes ~cancel (cfg ()) ~c:2 sa (Tile.Source.of_boolmat (transpose a))));
    ]

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
    QCheck_alcotest.to_alcotest prop_upper_matches_reference;
    QCheck_alcotest.to_alcotest prop_planes_match_reference;
    Alcotest.test_case "upper_planes under seeded yields" `Quick
      test_planes_under_yields;
    Alcotest.test_case "count skips empty blocks" `Quick
      test_count_skips_empty_blocks;
    Alcotest.test_case "fitted shape" `Quick test_fitted_shape;
    Alcotest.test_case "default-path cancel" `Quick test_default_path_cancel;
    Alcotest.test_case "mul_rows = mul rows" `Quick test_mul_rows_matches_mul;
    Alcotest.test_case "mul_rows streams in bounded memory" `Quick
      test_mul_rows_bounded;
    Alcotest.test_case "cancel drains the footprint" `Quick
      test_cancel_drains_footprint;
  ]
