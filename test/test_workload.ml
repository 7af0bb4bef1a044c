module Relation = Testkit.Relation
module Zipf = Jp_workload.Zipf
module Generate = Jp_workload.Generate
module Presets = Jp_workload.Presets
module Arrivals = Jp_workload.Arrivals

let test_zipf_skew () =
  let z = Zipf.create ~exponent:1.0 100 in
  let g = Jp_util.Rng.create 7 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let v = Zipf.sample z g in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 0 most frequent" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "head heavier than tail" true (counts.(0) > 4 * counts.(50));
  Alcotest.(check int) "samples stay in the domain" 20_000 (Array.fold_left ( + ) 0 counts)

let test_zipf_determinism () =
  let z = Zipf.create 50 in
  let a = Jp_util.Rng.create 9 and b = Jp_util.Rng.create 9 in
  let xs = List.init 100 (fun _ -> Zipf.sample z a) in
  let ys = List.init 100 (fun _ -> Zipf.sample z b) in
  Alcotest.(check (list int)) "deterministic" xs ys

let test_set_family_shape () =
  let r =
    Generate.set_family ~seed:5 ~sets:200 ~dom:300 ~avg_size:8 ~min_size:2
      ~max_size:40 ()
  in
  Alcotest.(check int) "src count" 200 (Relation.src_count r);
  Alcotest.(check int) "dst count" 300 (Relation.dst_count r);
  for a = 0 to 199 do
    let d = Relation.deg_src r a in
    if d < 2 || d > 40 then
      Alcotest.failf "set %d has out-of-range size %d" a d
  done

let test_uniform_dense_fill () =
  let r = Generate.uniform_dense ~seed:6 ~sets:100 ~dom:200 ~fill:0.3 () in
  let avg = float_of_int (Relation.size r) /. 100.0 /. 200.0 in
  Alcotest.(check bool) "fill close to 0.3" true (avg > 0.25 && avg < 0.35)

let test_community_graph () =
  let r = Generate.community_graph ~seed:8 ~communities:4 ~members:10 ~p_intra:1.0 () in
  (* complete communities: each node has 9 neighbours *)
  Alcotest.(check int) "degree" 9 (Relation.deg_src r 0);
  (* no cross-community edge: neighbours of node 0 stay in [0, 10) *)
  Array.iter
    (fun b -> if b >= 10 then Alcotest.fail "cross-community edge")
    (Relation.adj_src r 0);
  (* symmetric *)
  Alcotest.(check bool) "symmetric" true
    (Relation.mem r 0 1 = Relation.mem r 1 0)

let test_add_containments () =
  let base = Generate.set_family ~seed:9 ~sets:100 ~dom:150 ~avg_size:10
      ~min_size:2 ~max_size:30 () in
  let enriched = Generate.add_containments ~seed:10 ~fraction:0.5 base in
  Alcotest.(check int) "same set count" (Relation.src_count base)
    (Relation.src_count enriched);
  Alcotest.(check int) "same domain" (Relation.dst_count base)
    (Relation.dst_count enriched);
  (* enrichment must create containment pairs *)
  let scj = Jp_scj.Pretti.join enriched in
  Alcotest.(check bool) "containments exist" true (Jp_relation.Pairs.count scj > 0);
  (* fraction 0 is the identity *)
  let same = Generate.add_containments ~seed:10 ~fraction:0.0 base in
  Alcotest.(check bool) "fraction 0 identity" true (Relation.equal base same);
  Alcotest.check_raises "bad fraction" (Invalid_argument "Generate.add_containments")
    (fun () -> ignore (Generate.add_containments ~fraction:1.5 base))

let test_presets_generate () =
  List.iter
    (fun name ->
      let r = Presets.load ~scale:0.05 name in
      let ch = Presets.characteristics r in
      if ch.Presets.tuples <= 0 then
        Alcotest.failf "%s generated empty" (Presets.to_string name);
      if ch.Presets.sets <= 0 then Alcotest.fail "no sets";
      Alcotest.(check bool) "avg within min/max" true
        (float_of_int ch.Presets.min_size <= ch.Presets.avg_size
        && ch.Presets.avg_size <= float_of_int ch.Presets.max_size))
    Presets.all

let test_presets_roundtrip_names () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Presets.to_string n)
        true
        (Presets.of_string (Presets.to_string n) = Some n))
    Presets.all;
  Alcotest.(check bool) "unknown" true (Presets.of_string "nope" = None)

let test_presets_determinism () =
  let a = Presets.load ~scale:0.05 Presets.Dblp in
  let b = Presets.load ~scale:0.05 Presets.Dblp in
  Alcotest.(check bool) "same seed same data" true (Relation.equal a b)

let test_density_classes () =
  (* dense presets should have much higher fill than sparse ones *)
  let fill name =
    let r = Presets.load ~scale:0.05 name in
    let ch = Presets.characteristics r in
    ch.Presets.avg_size /. float_of_int (max 1 ch.Presets.dom)
  in
  Alcotest.(check bool) "image denser than dblp" true
    (fill Presets.Image > 10.0 *. fill Presets.Dblp);
  Alcotest.(check bool) "protein denser than roadnet" true
    (fill Presets.Protein > 10.0 *. fill Presets.Roadnet)

let test_arrivals_fixed_rate () =
  let s = Arrivals.schedule ~rate:40.0 ~count:20 () in
  Alcotest.(check int) "count" 20 (Array.length s);
  Array.iteri
    (fun i off ->
      Alcotest.(check (float 0.)) "offset exactly i/rate"
        (float_of_int i /. 40.0) off)
    s;
  (* fixed-rate schedules ignore the seed entirely *)
  let s' = Arrivals.schedule ~seed:99 ~rate:40.0 ~count:20 () in
  Alcotest.(check bool) "seed-independent" true (s = s');
  Alcotest.(check int) "empty" 0 (Array.length (Arrivals.schedule ~rate:1.0 ~count:0 ()))

let test_arrivals_poisson () =
  let p seed = Arrivals.schedule ~process:Arrivals.Poisson ~seed ~rate:100.0 ~count:2_000 () in
  let a = p 3 and b = p 3 and c = p 4 in
  Alcotest.(check bool) "same seed same schedule" true (a = b);
  Alcotest.(check bool) "different seed differs" true (a <> c);
  for i = 1 to Array.length a - 1 do
    if a.(i) < a.(i - 1) then Alcotest.fail "offsets must be nondecreasing"
  done;
  (* mean interarrival over 2000 draws should sit near 1/rate = 10ms *)
  let mean = a.(Array.length a - 1) /. float_of_int (Array.length a - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "mean interarrival %.4fs near 0.01s" mean)
    true
    (mean > 0.008 && mean < 0.012)

let test_arrivals_validation () =
  Alcotest.check_raises "rate 0" (Invalid_argument "Arrivals.schedule: rate must be > 0")
    (fun () -> ignore (Arrivals.schedule ~rate:0.0 ~count:1 ()));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Arrivals.schedule: count must be >= 0")
    (fun () -> ignore (Arrivals.schedule ~rate:1.0 ~count:(-1) ()));
  Alcotest.(check (list string)) "process names" [ "fixed"; "poisson" ]
    (List.map Arrivals.process_to_string [ Arrivals.Fixed_rate; Arrivals.Poisson ])

let test_arrivals_sweep () =
  let s = Arrivals.sweep ~lo:10.0 ~hi:640.0 ~steps:4 in
  Alcotest.(check int) "steps" 4 (Array.length s);
  Alcotest.(check (float 1e-9)) "lo endpoint" 10.0 s.(0);
  Alcotest.(check (float 1e-9)) "hi endpoint exact" 640.0 s.(3);
  (* geometric: constant ratio between consecutive rates *)
  let r01 = s.(1) /. s.(0) and r12 = s.(2) /. s.(1) in
  Alcotest.(check (float 1e-6)) "constant ratio" r01 r12;
  Alcotest.(check bool) "steps=1 is just hi" true
    (Arrivals.sweep ~lo:10.0 ~hi:640.0 ~steps:1 = [| 640.0 |]);
  Alcotest.check_raises "hi < lo" (Invalid_argument "Arrivals.sweep: hi must be >= lo")
    (fun () -> ignore (Arrivals.sweep ~lo:10.0 ~hi:5.0 ~steps:3))

let test_arrivals_drive_fake_clock () =
  (* Fake clock: sleeping advances it; submissions are also given a fixed
     cost, so the driver falls behind schedule partway through and must
     stop sleeping (open-loop: never stretch the schedule). *)
  let clock = ref 100.0 in
  let slept = ref [] in
  let now () = !clock in
  let sleep d =
    slept := d :: !slept;
    clock := !clock +. d
  in
  let submitted = ref [] in
  let submit_cost = 0.015 in
  let submit i =
    submitted := (i, !clock) :: !submitted;
    clock := !clock +. submit_cost
  in
  let schedule = Arrivals.schedule ~rate:100.0 ~count:5 () in
  let start = Arrivals.drive ~now ~sleep ~schedule submit in
  Alcotest.(check (float 0.)) "start is entry clock" 100.0 start;
  let subs = List.rev !submitted in
  Alcotest.(check (list int)) "all submitted in order" [ 0; 1; 2; 3; 4 ]
    (List.map fst subs);
  List.iteri
    (fun i (_, at) ->
      let due = start +. schedule.(i) in
      if at < due -. 1e-9 then
        Alcotest.failf "query %d submitted %.4fs early" i (due -. at))
    subs;
  (* with a 15ms submit cost against 10ms interarrivals the driver is
     behind from query 2 on: it may sleep only for the first arrivals *)
  Alcotest.(check bool) "stops sleeping once behind" true
    (List.length !slept < 5);
  List.iter
    (fun d -> if d < 0. then Alcotest.fail "negative sleep")
    !slept

let suite =
  [
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf determinism" `Quick test_zipf_determinism;
    Alcotest.test_case "set family shape" `Quick test_set_family_shape;
    Alcotest.test_case "uniform dense fill" `Quick test_uniform_dense_fill;
    Alcotest.test_case "community graph" `Quick test_community_graph;
    Alcotest.test_case "add containments" `Quick test_add_containments;
    Alcotest.test_case "presets generate" `Quick test_presets_generate;
    Alcotest.test_case "preset names" `Quick test_presets_roundtrip_names;
    Alcotest.test_case "preset determinism" `Quick test_presets_determinism;
    Alcotest.test_case "density classes" `Quick test_density_classes;
    Alcotest.test_case "arrivals fixed rate" `Quick test_arrivals_fixed_rate;
    Alcotest.test_case "arrivals poisson" `Quick test_arrivals_poisson;
    Alcotest.test_case "arrivals validation" `Quick test_arrivals_validation;
    Alcotest.test_case "arrivals sweep" `Quick test_arrivals_sweep;
    Alcotest.test_case "arrivals drive fake clock" `Quick test_arrivals_drive_fake_clock;
  ]
