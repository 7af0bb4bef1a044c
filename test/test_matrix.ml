module Dense = Jp_matrix.Dense
module Intmat = Jp_matrix.Intmat
module Boolmat = Jp_matrix.Boolmat
module Cost = Jp_matrix.Cost

let naive_int_mul a b =
  let ra, ca = Intmat.dims a and _rb, cb = Intmat.dims b in
  let c = Intmat.create ~rows:ra ~cols:cb in
  for i = 0 to ra - 1 do
    for j = 0 to cb - 1 do
      let s = ref 0 in
      for k = 0 to ca - 1 do
        s := !s + (Intmat.get a i k * Intmat.get b k j)
      done;
      Intmat.set c i j !s
    done
  done;
  c

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

let test_intmat_mul () =
  let a = random_intmat 1 ~rows:17 ~cols:23 ~density:0.3 in
  let b = random_intmat 2 ~rows:23 ~cols:11 ~density:0.4 in
  Alcotest.(check bool) "blocked = naive" true
    (Intmat.equal (Intmat.mul a b) (naive_int_mul a b))

let test_intmat_mul_large_block () =
  (* Exercise the k-blocking boundary (block size 64). *)
  let a = random_intmat 3 ~rows:5 ~cols:130 ~density:0.5 in
  let b = random_intmat 4 ~rows:130 ~cols:7 ~density:0.5 in
  Alcotest.(check bool) "crosses block boundary" true
    (Intmat.equal (Intmat.mul a b) (naive_int_mul a b))

let test_intmat_mul_parallel () =
  let a = random_intmat 5 ~rows:64 ~cols:64 ~density:0.3 in
  let b = random_intmat 6 ~rows:64 ~cols:64 ~density:0.3 in
  Alcotest.(check bool) "parallel = sequential" true
    (Intmat.equal (Intmat.mul ~domains:4 a b) (Intmat.mul a b))

let test_intmat_dim_mismatch () =
  let a = Intmat.create ~rows:2 ~cols:3 and b = Intmat.create ~rows:4 ~cols:2 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Intmat.mul: dimension mismatch (2x3 . 4x2)") (fun () ->
      ignore (Intmat.mul a b))

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

let test_boolmat_mul () =
  let a = random_intmat 7 ~rows:40 ~cols:90 ~density:0.15 in
  let b = random_intmat 8 ~rows:90 ~cols:70 ~density:0.15 in
  let expect = bool_of_int (naive_int_mul (bool01 a) (bool01 b)) in
  let got = Boolmat.mul (bool_of_int a) (bool_of_int b) in
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
  let expect = naive_int_mul (bool01 a) bt in
  let got = Boolmat.count_product (bool_of_int a) (bool_of_int b) in
  let rows, cols = Intmat.dims expect in
  let ok = ref true in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Intmat.get expect i j <> Intmat.get got i j then ok := false
    done
  done;
  Alcotest.(check bool) "count product = A * B^T" true !ok

let test_count_product_mismatch () =
  let a = Boolmat.create ~rows:2 ~cols:3 and b = Boolmat.create ~rows:2 ~cols:4 in
  Alcotest.check_raises "inner dim"
    (Invalid_argument
       "Boolmat.count_product: inner dim mismatch (2x3 . (2x4)T)") (fun () ->
      ignore (Boolmat.count_product a b))

let test_boolmat_mul_mismatch () =
  let a = Boolmat.create ~rows:2 ~cols:3 and b = Boolmat.create ~rows:5 ~cols:4 in
  Alcotest.check_raises "dims in message"
    (Invalid_argument "Boolmat.mul: dimension mismatch (2x3 . 5x4)") (fun () ->
      ignore (Boolmat.mul a b))

let test_dense_mul () =
  let a = Dense.of_arrays [| [| 1.0; 2.0 |]; [| 0.0; 3.0 |] |] in
  let b = Dense.of_arrays [| [| 4.0; 0.0 |]; [| 1.0; 2.0 |] |] in
  let c = Dense.mul a b in
  Alcotest.(check (float 1e-9)) "c00" 6.0 (Dense.get c 0 0);
  Alcotest.(check (float 1e-9)) "c01" 4.0 (Dense.get c 0 1);
  Alcotest.(check (float 1e-9)) "c10" 3.0 (Dense.get c 1 0);
  Alcotest.(check (float 1e-9)) "c11" 6.0 (Dense.get c 1 1)

let test_lemma1 () =
  (* omega = 3: plain cubic. *)
  Alcotest.(check (float 1e-6)) "cubic" 8.0 (Cost.lemma1 ~u:2 ~v:2 ~w:2 ());
  (* omega = 2: u*v*w / beta. *)
  Alcotest.(check (float 1e-6)) "omega 2" 20.0
    (Cost.lemma1 ~omega:2.0 ~u:3 ~v:4 ~w:5 ());
  Alcotest.(check (float 1e-6)) "degenerate" 0.0 (Cost.lemma1 ~u:0 ~v:4 ~w:5 ())

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
  let f u = Cost.mhat m Cost.Count ~u ~v:100 ~w:100 ~cores:1 in
  Alcotest.(check bool) "monotone in u" true (f 10 < f 100);
  let t1 = Cost.mhat m Cost.Count ~u:1000 ~v:1000 ~w:1000 ~cores:1 in
  let t4 = Cost.mhat m Cost.Count ~u:1000 ~v:1000 ~w:1000 ~cores:4 in
  Alcotest.(check bool) "more cores cheaper" true (t4 < t1);
  let tb = Cost.mhat m Cost.Boolean ~u:1000 ~v:1000 ~w:1000 ~cores:1 in
  Alcotest.(check bool) "boolean kernel cheaper" true (tb < t1)

let suite =
  [
    Alcotest.test_case "intmat mul" `Quick test_intmat_mul;
    Alcotest.test_case "intmat mul blocks" `Quick test_intmat_mul_large_block;
    Alcotest.test_case "intmat mul parallel" `Quick test_intmat_mul_parallel;
    Alcotest.test_case "intmat dim mismatch" `Quick test_intmat_dim_mismatch;
    Alcotest.test_case "boolmat mul" `Quick test_boolmat_mul;
    Alcotest.test_case "boolmat mul mismatch" `Quick test_boolmat_mul_mismatch;
    Alcotest.test_case "boolmat adjacency" `Quick test_boolmat_adjacency;
    Alcotest.test_case "count product" `Quick test_count_product;
    Alcotest.test_case "count product mismatch" `Quick test_count_product_mismatch;
    Alcotest.test_case "dense mul" `Quick test_dense_mul;
    Alcotest.test_case "lemma1" `Quick test_lemma1;
    Alcotest.test_case "mhat monotone" `Quick test_mhat_monotone;
  ]
