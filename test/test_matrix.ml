module Intmat = Testkit.Intmat
module Boolmat = Testkit.Boolmat
module Cost = Jp_matrix.Cost
module Tile = Jp_matrix.Tile

let random_intmat seed ~rows ~cols ~density =
  let g = Jp_util.Rng.create seed in
  let m = Intmat.create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Jp_util.Rng.float g 1.0 < density then
        Intmat.set m i j (1 + Jp_util.Rng.int g 3)
    done
  done;
  m

let bool_of_int m =
  let rows, cols = Intmat.dims m in
  let b = Boolmat.create ~rows ~cols in
  Intmat.iter_nonzero m (fun i j _ -> Boolmat.set b i j);
  b

let bool01 m =
  let rows, cols = Intmat.dims m in
  let c = Intmat.create ~rows ~cols in
  Intmat.iter_nonzero m (fun i j _ -> Intmat.set c i j 1);
  c

(* Boolean products run through the one kernel, {!Tile}; these check
   it on Boolmat operands against the integer product written out here. *)
let tile_mul a b =
  Tile.mul (Tile.config ())
    (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)

let tile_count_product a b =
  Tile.count_product (Tile.config ())
    (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)

let test_boolmat_mul () =
  let a = random_intmat 7 ~rows:40 ~cols:90 ~density:0.15 in
  let b = random_intmat 8 ~rows:90 ~cols:70 ~density:0.15 in
  let expect = bool_of_int (Intmat.naive_mul (bool01 a) (bool01 b)) in
  let got = tile_mul (bool_of_int a) (bool_of_int b) in
  Alcotest.(check bool) "bool product = support of count product" true
    (Boolmat.equal got expect)

let test_boolmat_adjacency () =
  let m = Boolmat.of_adjacency ~rows:3 ~cols:10 (fun i -> [| i; i + 3 |]) in
  Alcotest.(check int) "nnz" 6 (Boolmat.nnz m);
  Alcotest.(check bool) "mem" true (Boolmat.mem m 2 5);
  let collected = ref [] in
  Boolmat.iter_row m 1 (fun j -> collected := j :: !collected);
  Alcotest.(check (list int)) "row iter" [ 1; 4 ] (List.rev !collected)

let test_count_product () =
  (* C = A * B^T as AND+popcount must match the scalar product. *)
  let a = random_intmat 11 ~rows:30 ~cols:80 ~density:0.3 in
  let b = random_intmat 12 ~rows:25 ~cols:80 ~density:0.3 in
  let bt =
    let r, c = Intmat.dims b in
    let t = Intmat.create ~rows:c ~cols:r in
    Intmat.iter_nonzero b (fun i j _ -> Intmat.set t j i 1);
    t
  in
  let expect = Intmat.naive_mul (bool01 a) bt in
  let got = tile_count_product (bool_of_int a) (bool_of_int b) in
  Alcotest.(check bool) "count product = A * B^T" true (Intmat.equal got expect)

let test_count_product_mismatch () =
  let a = Boolmat.create ~rows:2 ~cols:3 and b = Boolmat.create ~rows:2 ~cols:4 in
  Alcotest.check_raises "inner dim"
    (Invalid_argument
       "Tile.count_product: inner dim mismatch (2x3 . (2x4)T)") (fun () ->
      ignore (tile_count_product a b))

let test_boolmat_mul_mismatch () =
  let a = Boolmat.create ~rows:2 ~cols:3 and b = Boolmat.create ~rows:5 ~cols:4 in
  Alcotest.check_raises "dims in message"
    (Invalid_argument "Tile.mul: dimension mismatch (2x3 . 5x4)") (fun () ->
      ignore (tile_mul a b))

let test_lemma1 () =
  (* omega = 3: plain cubic, square and rectangular. *)
  Alcotest.(check (float 1e-6)) "cubic" 8.0 (Cost.lemma1 ~u:2 ~v:2 ~w:2);
  Alcotest.(check (float 1e-6)) "rectangular" 60.0 (Cost.lemma1 ~u:3 ~v:4 ~w:5);
  Alcotest.(check (float 1e-6)) "degenerate" 0.0 (Cost.lemma1 ~u:0 ~v:4 ~w:5)

let test_mhat_monotone () =
  let m =
    {
      Cost.ts = 1e-9;
      tm = 1e-8;
      ti = 5e-9;
      count_word = 4e-9;
      bool_word = 2e-9;
      cores = 4;
    }
  in
  let f u = Cost.count_product_seconds m ~u ~v:100 ~w:100 ~cores:1 in
  Alcotest.(check bool) "monotone in u" true (f 10 < f 100);
  let t1 = Cost.count_product_seconds m ~u:1000 ~v:1000 ~w:1000 ~cores:1 in
  let t4 = Cost.count_product_seconds m ~u:1000 ~v:1000 ~w:1000 ~cores:4 in
  Alcotest.(check bool) "more cores cheaper" true (t4 < t1);
  (* The row-OR price grows with the ones of R⁺, with each word the
     rows gain (past a word edge only) and with the heavy bit rows. *)
  let g ~v ~w ~nnz = Cost.row_or_seconds m ~v ~w ~nnz in
  Alcotest.(check bool) "row-OR monotone in nnz" true
    (g ~v:100 ~w:100 ~nnz:10 < g ~v:100 ~w:100 ~nnz:100);
  Alcotest.(check bool) "row-OR monotone in words" true
    (g ~v:100 ~w:62 ~nnz:100 < g ~v:100 ~w:63 ~nnz:100);
  Alcotest.(check (float 0.0)) "row-OR flat within a word" (g ~v:100 ~w:63 ~nnz:100)
    (g ~v:100 ~w:124 ~nnz:100);
  Alcotest.(check bool) "row-OR monotone in v" true
    (g ~v:10 ~w:100 ~nnz:100 < g ~v:100 ~w:100 ~nnz:100);
  Alcotest.(check (float 0.0)) "no ones, no rows, no cost" 0.0 (g ~v:0 ~w:100 ~nnz:0);
  let tb = g ~v:1000 ~w:1000 ~nnz:(1000 * 1000) in
  Alcotest.(check bool) "boolean kernel cheaper" true (tb < t1)

(* A pinned machine record round-trips its six numbers and ignores
   other members; a record missing one, or unreadable, is an error. *)
let test_load_machine () =
  let write text =
    let path = Filename.temp_file "joinproj" ".json" in
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    path
  in
  let full =
    write
      {|{"sentinel_s": 0.003, "ts": 1e-09, "tm": 2.6e-08, "ti": 1.45e-08,
         "count_word": 1.5e-08, "bool_word": 9e-09, "cores": 2}|}
  in
  let partial = write {|{"ts": 1e-09, "tm": 2.6e-08}|} in
  Fun.protect
    ~finally:(fun () -> Sys.remove full; Sys.remove partial)
    (fun () ->
      (match Cost.load_machine full with
      | Ok m ->
        Alcotest.(check (float 0.0)) "ts" 1e-9 m.Cost.ts;
        Alcotest.(check (float 0.0)) "count_word" 1.5e-8 m.Cost.count_word;
        Alcotest.(check int) "cores" 2 m.Cost.cores
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "missing constant" true
        (Result.is_error (Cost.load_machine partial));
      Alcotest.(check bool) "missing file" true
        (Result.is_error (Cost.load_machine (full ^ ".absent"))))

(* Each calibration probe times an engine kernel over its divisor,
   computed from the operands; with recording on, one run of the kernel
   moves the counter it names by exactly that much. *)
let test_probe_divisors () =
  List.iter
    (fun c ->
      let p = Cost.probe ~quick:true c in
      Alcotest.(check bool) (p.Cost.counter ^ " has work") true (p.Cost.work > 0);
      Jp_obs.reset ();
      Jp_obs.enable ();
      Fun.protect
        ~finally:(fun () -> Jp_obs.disable (); Jp_obs.reset ())
        (fun () ->
          p.Cost.run ();
          Alcotest.(check int) p.Cost.counter p.Cost.work
            (Jp_obs.value (Jp_obs.counter p.Cost.counter))))
    Cost.[ Ti; Count_word; Bool_word ]

(* A live calibration returns usable constants and leaves the machine
   every plan reads where it was. *)
let test_calibrate () =
  let m = Cost.calibrate () in
  List.iter
    (fun (name, x) ->
      Alcotest.(check bool) (name ^ " positive and finite") true
        (Float.is_finite x && x > 0.0))
    [
      ("ts", m.Cost.ts);
      ("tm", m.Cost.tm);
      ("ti", m.Cost.ti);
      ("count_word", m.Cost.count_word);
      ("bool_word", m.Cost.bool_word);
    ];
  Alcotest.(check bool) "cores" true (m.Cost.cores >= 1);
  Alcotest.(check bool) "machine still pinned" true
    (Cost.machine () = Testkit.fixed_machine)

let suite =
  [
    Alcotest.test_case "boolmat mul" `Quick test_boolmat_mul;
    Alcotest.test_case "boolmat mul mismatch" `Quick test_boolmat_mul_mismatch;
    Alcotest.test_case "boolmat adjacency" `Quick test_boolmat_adjacency;
    Alcotest.test_case "count product" `Quick test_count_product;
    Alcotest.test_case "count product mismatch" `Quick test_count_product_mismatch;
    Alcotest.test_case "lemma1" `Quick test_lemma1;
    Alcotest.test_case "mhat monotone" `Quick test_mhat_monotone;
    Alcotest.test_case "load machine" `Quick test_load_machine;
    Alcotest.test_case "probe divisors" `Quick test_probe_divisors;
    Alcotest.test_case "calibrate" `Quick test_calibrate;
  ]
