(* The optimizer's planning state: the counting-sorted degree indexes
   against brute force, and every plan on a fixed seeded family pinned to
   golden strings, so a change to how [Optimizer.prepare] builds (or
   skips) its indexes cannot move a decision, a threshold or a cost. *)

module Relation = Jp_relation.Relation
module Stats = Jp_relation.Stats
module Optimizer = Joinproj.Optimizer

(* ------------------------------------------------------------------ *)
(* Stats against brute force                                            *)
(* ------------------------------------------------------------------ *)

(* Degree arrays of four shapes: empty, all zero, uniform and skewed
   (a few large degrees, most small or zero). *)
let degrees_gen =
  QCheck.Gen.(
    int_range 0 3 >>= fun shape ->
    int_range 0 60 >>= fun n ->
    match shape with
    | 0 -> return [||]
    | 1 -> return (Array.make n 0)
    | 2 -> array_size (return n) (int_range 0 8)
    | _ ->
      array_size (return n)
        (float_bound_inclusive 1.0 >|= fun u ->
         int_of_float (200.0 ** u) - 1))

let stats_case =
  QCheck.make
    ~print:(fun (deg, w1, w2) ->
      let show a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
      Printf.sprintf "deg=[%s] w1=[%s] w2=[%s]" (show deg) (show w1) (show w2))
    QCheck.Gen.(
      degrees_gen >>= fun deg ->
      let n = Array.length deg in
      array_size (return n) (int_range 0 1000) >>= fun w1 ->
      array_size (return n) (int_range 0 1000) >|= fun w2 -> (deg, w1, w2))

let brute_count_gt deg d =
  Array.fold_left (fun acc x -> if x > 0 && x > d then acc + 1 else acc) 0 deg

let brute_weight_le deg w d =
  let acc = ref 0 in
  Array.iteri (fun v x -> if x > 0 && x <= d then acc := !acc + w.(v)) deg;
  !acc

let prop_stats_brute_force =
  QCheck.Test.make ~name:"counting-sorted stats = brute force" ~count:300
    stats_case (fun (deg, w1, w2) ->
      let maxdeg = Array.fold_left max 0 deg in
      let by_deg = Stats.of_degrees deg in
      let s1 = Stats.of_degrees ~weights:w1 deg in
      (* the optimizer's shared y ordering: one sort, several weights *)
      let s2 = Stats.reweight s1 w2 in
      let ok = ref true in
      for d = 0 to maxdeg + 1 do
        List.iter
          (fun (t, w) ->
            ok :=
              !ok
              && Stats.count_gt t d = brute_count_gt deg d
              && Stats.weight_le t d = brute_weight_le deg w d
              && Stats.max_degree t = maxdeg)
          [ (by_deg, deg); (s1, w1); (s2, w2) ]
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Golden plans                                                         *)
(* ------------------------------------------------------------------ *)

let machine =
  {
    Jp_matrix.Cost.ts = 1e-9;
    tm = 2.6e-8;
    ti = 1.45e-8;
    count_word = 1.5e-8;
    bool_word = 9e-9;
    cores = 2;
  }

let block ~nx ~ny =
  Relation.of_edges (Array.init (nx * ny) (fun i -> (i / ny, i mod ny)))

let empty = Relation.of_edges [||]

(* A dense core on y 0..4 (rows × 5) inside a sparse relation over
   [nx] × 200: the tuples on heavy y stay below the active domain, so the
   heavy-dimension bounds read the per-side y weights unclamped. *)
let cored ~seed ~nx ~rows =
  let sparse = Relation.to_edges (Gen.random_relation ~seed ~nx ~ny:200 ~edges:nx ()) in
  Relation.of_edges (Array.append (Array.init (rows * 5) (fun i -> (i / 5, i mod 5))) sparse)

(* r ≠ s, a wider y domain on either side, empty sides, and inputs on
   both sides of the 20N rule. *)
let family =
  let rand seed nx ny edges = Gen.random_relation ~seed ~nx ~ny ~edges () in
  let skew seed nx ny edges = Gen.skewed_relation ~seed ~nx ~ny ~edges () in
  [
    ("rand-self", rand 1 40 30 120, rand 1 40 30 120);
    ("rand-rs", rand 2 40 30 150, rand 3 35 30 90);
    ("rand-dense-rs", rand 4 30 12 300, rand 5 25 12 280);
    ("skew-self", skew 6 60 20 600, skew 6 60 20 600);
    ("skew-rs", skew 7 50 25 500, skew 8 45 25 400);
    ("skew-sparse-rs", skew 9 200 150 300, skew 10 180 150 260);
    ("skew-large-self", skew 11 400 60 3000, skew 11 400 60 3000);
    ("block-self", block ~nx:30 ~ny:30, block ~nx:30 ~ny:30);
    ("block-rs", block ~nx:25 ~ny:20, rand 12 30 20 400);
    (* join size exactly 20N, then 21N *)
    ("block-20N", block ~nx:20 ~ny:30, block ~nx:20 ~ny:30);
    ("block-21N", block ~nx:21 ~ny:30, block ~nx:21 ~ny:30);
    ("cored-rs", cored ~seed:26 ~nx:600 ~rows:100, cored ~seed:27 ~nx:1000 ~rows:150);
    ("wide-r", Relation.widen_dst (skew 13 40 20 400) 35, skew 14 40 20 300);
    ("wide-s", skew 15 40 20 400, Relation.widen_dst (rand 16 40 20 200) 50);
    ("skew-large-rs", skew 19 300 40 2500, skew 20 250 40 2000);
    ("rand-large-self", rand 21 60 10 600, rand 21 60 10 600);
    ("wide-r-large", Relation.widen_dst (skew 22 200 30 2000) 45, skew 23 220 30 1800);
    ("wide-s-large", skew 24 200 30 2000, Relation.widen_dst (skew 25 150 30 1500) 60);
    ("empty-r", empty, skew 17 30 20 200);
    ("empty-s", skew 18 30 20 200, empty);
    ("empty-both", empty, empty);
  ]

let plan_lines (label, r, s) =
  let line kind p =
    Printf.sprintf "%s %s %s (%h)" label kind (Optimizer.explain p)
      p.Optimizer.est_seconds
  in
  let cost decision ~counts_mode =
    let kind = if counts_mode then Jp_matrix.Cost.Count else Jp_matrix.Cost.Boolean in
    Optimizer.estimate_cost ~machine ~kind ~counts_mode ~r ~s decision
  in
  let part = Optimizer.Partitioned { d1 = 2; d2 = 3 } in
  [
    line "plan" (Optimizer.plan ~machine ~r ~s ());
    line "plan/2" (Optimizer.plan ~machine ~domains:2 ~r ~s ());
    line "counts" (Optimizer.plan_counts ~machine ~r ~s ());
    Printf.sprintf "%s cost wcoj=%h mm(2,3)=%h counts-mm(2,3)=%h" label
      (cost Optimizer.Wcoj ~counts_mode:false)
      (cost part ~counts_mode:false)
      (cost part ~counts_mode:true);
  ]

(* Generated by [plan_lines] from the optimizer that built every index
   before applying the 20N rule; deciding first must change nothing. *)
let golden =
  [
    "rand-self plan plan=wcoj est_out=140 join_size=535 est=0.0000s (0x1.2493ef46db6cep-17)";
    "rand-self plan/2 plan=wcoj est_out=140 join_size=535 est=0.0000s (0x1.2493ef46db6cep-17)";
    "rand-self counts plan=wcoj est_out=140 join_size=535 est=0.0000s (0x1.2493ef46db6cep-17)";
    "rand-self cost wcoj=0x1.2493ef46db6cep-17 mm(2,3)=0x1.22273e1ccdafap-16 counts-mm(2,3)=0x1.df103a5ef8761p-16";
    "rand-rs plan plan=wcoj est_out=133 join_size=458 est=0.0000s (0x1.00dbf30570ad4p-17)";
    "rand-rs plan/2 plan=wcoj est_out=133 join_size=458 est=0.0000s (0x1.00dbf30570ad4p-17)";
    "rand-rs counts plan=wcoj est_out=133 join_size=458 est=0.0000s (0x1.00dbf30570ad4p-17)";
    "rand-rs cost wcoj=0x1.00dbf30570ad4p-17 mm(2,3)=0x1.1b9bb87074156p-16 counts-mm(2,3)=0x1.88400eebd1b87p-16";
    "rand-dense-rs plan plan=wcoj est_out=383 join_size=3026 est=0.0000s (0x1.769c2d617bdfcp-15)";
    "rand-dense-rs plan/2 plan=wcoj est_out=383 join_size=3026 est=0.0000s (0x1.769c2d617bdfcp-15)";
    "rand-dense-rs counts plan=wcoj est_out=383 join_size=3026 est=0.0000s (0x1.769c2d617bdfcp-15)";
    "rand-dense-rs cost wcoj=0x1.769c2d617bdfcp-15 mm(2,3)=0x1.8014454a52bb7p-17 counts-mm(2,3)=0x1.9d4dd39c13c49p-17";
    "skew-self plan plan=mm(d1=10,d2=2) est_out=1680 join_size=11702 est=0.0000s (0x1.52016caf49d94p-15)";
    "skew-self plan/2 plan=mm(d1=10,d2=2) est_out=1680 join_size=11702 est=0.0000s (0x1.301853687d932p-15)";
    "skew-self counts plan=mm(d1=12,d2=414) est_out=1680 join_size=11702 est=0.0000s (0x1.6ec6765151ca7p-15)";
    "skew-self cost wcoj=0x1.671d3cf41e97cp-13 mm(2,3)=0x1.89108991fcb4fp-15 counts-mm(2,3)=0x1.908ae16904987p-15";
    "skew-rs plan plan=wcoj est_out=806 join_size=6229 est=0.0001s (0x1.8048c345edfe9p-14)";
    "skew-rs plan/2 plan=wcoj est_out=806 join_size=6229 est=0.0001s (0x1.8048c345edfe9p-14)";
    "skew-rs counts plan=wcoj est_out=806 join_size=6229 est=0.0001s (0x1.8048c345edfe9p-14)";
    "skew-rs cost wcoj=0x1.8048c345edfe9p-14 mm(2,3)=0x1.6788f0fb27051p-15 counts-mm(2,3)=0x1.7e390da620368p-15";
    "skew-sparse-rs plan plan=wcoj est_out=664 join_size=2851 est=0.0000s (0x1.7c964265efe2cp-15)";
    "skew-sparse-rs plan/2 plan=wcoj est_out=664 join_size=2851 est=0.0000s (0x1.7c964265efe2cp-15)";
    "skew-sparse-rs counts plan=wcoj est_out=664 join_size=2851 est=0.0000s (0x1.7c964265efe2cp-15)";
    "skew-sparse-rs cost wcoj=0x1.7c964265efe2cp-15 mm(2,3)=0x1.54c267c3c2951p-14 counts-mm(2,3)=0x1.13684969666b4p-13";
    "skew-large-self plan plan=mm(d1=45,d2=2) est_out=40800 join_size=251374 est=0.0009s (0x1.e73eaf513842ap-11)";
    "skew-large-self plan/2 plan=mm(d1=37,d2=2) est_out=40800 join_size=251374 est=0.0008s (0x1.918e81e3fd5aep-11)";
    "skew-large-self counts plan=mm(d1=57,d2=2446) est_out=40800 join_size=251374 est=0.0010s (0x1.0c4df35074ffep-10)";
    "skew-large-self cost wcoj=0x1.df1c497b8dd9bp-9 mm(2,3)=0x1.0f4f619494afap-9 counts-mm(2,3)=0x1.7d23f56a3582p-9";
    "block-self plan plan=mm(d1=1,d2=1) est_out=900 join_size=27000 est=0.0000s (0x1.d76dcf60cf6d9p-16)";
    "block-self plan/2 plan=mm(d1=1,d2=1) est_out=900 join_size=27000 est=0.0000s (0x1.b68d0f44d6434p-16)";
    "block-self counts plan=mm(d1=1,d2=900) est_out=900 join_size=27000 est=0.0000s (0x1.01a2126db87dap-15)";
    "block-self cost wcoj=0x1.9b55dc5580e5fp-12 mm(2,3)=0x1.d76dcf60cf6d9p-16 counts-mm(2,3)=0x1.01a2126db87dap-15";
    "block-rs plan plan=wcoj est_out=383 join_size=7275 est=0.0001s (0x1.bd2c45d92824fp-14)";
    "block-rs plan/2 plan=wcoj est_out=383 join_size=7275 est=0.0001s (0x1.bd2c45d92824fp-14)";
    "block-rs counts plan=wcoj est_out=383 join_size=7275 est=0.0001s (0x1.bd2c45d92824fp-14)";
    "block-rs cost wcoj=0x1.bd2c45d92824fp-14 mm(2,3)=0x1.352929d9bd9fap-16 counts-mm(2,3)=0x1.4d83cb1dde7c9p-16";
    "block-20N plan plan=wcoj est_out=400 join_size=12000 est=0.0002s (0x1.6dfeb628f165ep-13)";
    "block-20N plan/2 plan=wcoj est_out=400 join_size=12000 est=0.0002s (0x1.6dfeb628f165ep-13)";
    "block-20N counts plan=wcoj est_out=400 join_size=12000 est=0.0002s (0x1.6dfeb628f165ep-13)";
    "block-20N cost wcoj=0x1.6dfeb628f165ep-13 mm(2,3)=0x1.2bac6dc2546f1p-16 counts-mm(2,3)=0x1.3f2821f8d51fep-16";
    "block-21N plan plan=mm(d1=1,d2=1) est_out=441 join_size=13230 est=0.0000s (0x1.3c310828a88cfp-16)";
    "block-21N plan/2 plan=mm(d1=1,d2=1) est_out=441 join_size=13230 est=0.0000s (0x1.2c14d2fc3b427p-16)";
    "block-21N counts plan=mm(d1=1,d2=630) est_out=441 join_size=13230 est=0.0000s (0x1.51abf9b93a459p-16)";
    "block-21N cost wcoj=0x1.9373c34ed253bp-13 mm(2,3)=0x1.3c310828a88cfp-16 counts-mm(2,3)=0x1.51abf9b93a459p-16";
    "cored-rs plan plan=mm(d1=16,d2=2) est_out=13496 join_size=82461 est=0.0002s (0x1.ab076beca975p-13)";
    "cored-rs plan/2 plan=mm(d1=6,d2=1) est_out=13496 join_size=82461 est=0.0002s (0x1.7875f741da2edp-13)";
    "cored-rs counts plan=mm(d1=6,d2=1743) est_out=13496 join_size=82461 est=0.0005s (0x1.054bc56a62b11p-11)";
    "cored-rs cost wcoj=0x1.3c4ddb7781e41p-10 mm(2,3)=0x1.c1bd693762e1p-11 counts-mm(2,3)=0x1.2a69055f2a65ep-7";
    "wide-r plan plan=wcoj est_out=600 join_size=4014 est=0.0001s (0x1.f0f75faea27b8p-15)";
    "wide-r plan/2 plan=wcoj est_out=600 join_size=4014 est=0.0001s (0x1.f0f75faea27b8p-15)";
    "wide-r counts plan=wcoj est_out=600 join_size=4014 est=0.0001s (0x1.f0f75faea27b8p-15)";
    "wide-r cost wcoj=0x1.f0f75faea27b8p-15 mm(2,3)=0x1.d7ee8542460c7p-16 counts-mm(2,3)=0x1.b1b7f873b4d27p-16";
    "wide-s plan plan=wcoj est_out=320 join_size=2292 est=0.0000s (0x1.1f82dac3e3f89p-15)";
    "wide-s plan/2 plan=wcoj est_out=320 join_size=2292 est=0.0000s (0x1.1f82dac3e3f89p-15)";
    "wide-s counts plan=wcoj est_out=320 join_size=2292 est=0.0000s (0x1.1f82dac3e3f89p-15)";
    "wide-s cost wcoj=0x1.1f82dac3e3f89p-15 mm(2,3)=0x1.dfb7decae6753p-16 counts-mm(2,3)=0x1.d85c1c8a19463p-16";
    "skew-large-rs plan plan=mm(d1=29,d2=2) est_out=20539 join_size=152153 est=0.0005s (0x1.0d9217beb91aep-11)";
    "skew-large-rs plan/2 plan=mm(d1=25,d2=2) est_out=20539 join_size=152153 est=0.0004s (0x1.b5b076d277106p-12)";
    "skew-large-rs counts plan=mm(d1=42,d2=2005) est_out=20539 join_size=152153 est=0.0006s (0x1.2bba18e917e96p-11)";
    "skew-large-rs cost wcoj=0x1.22322219b8ec5p-9 mm(2,3)=0x1.aa2b8d21911f5p-11 counts-mm(2,3)=0x1.0b4c4f9469393p-10";
    "rand-large-self plan plan=mm(d1=1,d2=1) est_out=2280 join_size=14726 est=0.0000s (0x1.77924e7d9df35p-16)";
    "rand-large-self plan/2 plan=mm(d1=1,d2=1) est_out=2280 join_size=14726 est=0.0000s (0x1.4bbbf902fc65ap-16)";
    "rand-large-self counts plan=mm(d1=1,d2=382) est_out=2280 join_size=14726 est=0.0000s (0x1.b2056b212005ap-16)";
    "rand-large-self cost wcoj=0x1.c311f42f7879dp-13 mm(2,3)=0x1.abab49d701db2p-16 counts-mm(2,3)=0x1.b2056b212005ap-16";
    "wide-r-large plan plan=mm(d1=27,d2=2) est_out=15522 join_size=106927 est=0.0003s (0x1.3b06fa4381646p-12)";
    "wide-r-large plan/2 plan=mm(d1=21,d2=1) est_out=15522 join_size=106927 est=0.0002s (0x1.f303caf0497ap-13)";
    "wide-r-large counts plan=mm(d1=33,d2=1436) est_out=15522 join_size=106927 est=0.0004s (0x1.7c5d6084f71aep-12)";
    "wide-r-large cost wcoj=0x1.97cd55779a851p-10 mm(2,3)=0x1.a21f0b893c215p-12 counts-mm(2,3)=0x1.f7188f935a046p-12";
    "wide-s-large plan plan=mm(d1=23,d2=3) est_out=10045 join_size=85761 est=0.0002s (0x1.05c2ce9fc9f7cp-12)";
    "wide-s-large plan/2 plan=mm(d1=15,d2=2) est_out=10045 join_size=85761 est=0.0002s (0x1.a28d5d0635927p-13)";
    "wide-s-large counts plan=mm(d1=27,d2=1456) est_out=10045 join_size=85761 est=0.0003s (0x1.291b65f906d0cp-12)";
    "wide-s-large cost wcoj=0x1.4759275b052bbp-10 mm(2,3)=0x1.2f49c718906cap-12 counts-mm(2,3)=0x1.804943d8579eap-12";
    "empty-r plan plan=wcoj est_out=1 join_size=0 est=0.0000s (0x0p+0)";
    "empty-r plan/2 plan=wcoj est_out=1 join_size=0 est=0.0000s (0x0p+0)";
    "empty-r counts plan=wcoj est_out=1 join_size=0 est=0.0000s (0x0p+0)";
    "empty-r cost wcoj=0x0p+0 mm(2,3)=0x0p+0 counts-mm(2,3)=0x0p+0";
    "empty-s plan plan=wcoj est_out=1 join_size=0 est=0.0000s (0x1.a2c2623ab2ae7p-21)";
    "empty-s plan/2 plan=wcoj est_out=1 join_size=0 est=0.0000s (0x1.a2c2623ab2ae7p-21)";
    "empty-s counts plan=wcoj est_out=1 join_size=0 est=0.0000s (0x1.a2c2623ab2ae7p-21)";
    "empty-s cost wcoj=0x1.a2c2623ab2ae7p-21 mm(2,3)=0x1.a2c2623ab2ae7p-21 counts-mm(2,3)=0x1.a2c2623ab2ae7p-21";
    "empty-both plan plan=wcoj est_out=1 join_size=0 est=0.0000s (0x0p+0)";
    "empty-both plan/2 plan=wcoj est_out=1 join_size=0 est=0.0000s (0x0p+0)";
    "empty-both counts plan=wcoj est_out=1 join_size=0 est=0.0000s (0x0p+0)";
    "empty-both cost wcoj=0x0p+0 mm(2,3)=0x0p+0 counts-mm(2,3)=0x0p+0";
  ]

let test_golden_plans () =
  let got = List.concat_map plan_lines family in
  Alcotest.(check (list string)) "explain strings" golden got

(* A prepared value the 20N rule decided holds no indexes: it plans
   Wcoj from the summary and costs a few words. *)
let test_rule_first () =
  let sparse = Gen.random_relation ~seed:3 ~nx:200 ~ny:200 ~edges:300 () in
  let dense = block ~nx:30 ~ny:30 in
  let ps = Optimizer.prepare ~r:sparse ~s:sparse in
  let pd = Optimizer.prepare ~r:dense ~s:dense in
  let sm = Optimizer.summary ps in
  Alcotest.(check bool) "sparse within 20N" true
    (sm.Joinproj.Estimator.join_size <= 20 * sm.Joinproj.Estimator.n);
  (match (Optimizer.plan_prepared ~machine ps ()).Optimizer.decision with
  | Optimizer.Wcoj -> ()
  | Optimizer.Partitioned _ -> Alcotest.fail "expected Wcoj under the 20N rule");
  Alcotest.(check bool) "summary-only footprint" true
    (Optimizer.prepared_bytes ps <= 128);
  Alcotest.(check bool) "indexed footprint larger" true
    (Optimizer.prepared_bytes pd > Optimizer.prepared_bytes ps)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_stats_brute_force;
    Alcotest.test_case "golden plans" `Quick test_golden_plans;
    Alcotest.test_case "20N rule before any index" `Quick test_rule_first;
  ]
