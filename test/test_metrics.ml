(* Jp_obs instruments: the deterministic parts of the metrics layer.
   Bucket boundaries, quantile error bounds, merge commutativity,
   recording gates, the one registry and its one reset, fake-clock
   snapshot ordering and the OpenMetrics exposition are all exact;
   wall-clock values never enter these tests. *)

module Obs = Jp_obs
module Hist = Jp_obs.Hist
module Rng = Jp_util.Rng

let sqrt2 = sqrt 2.

let with_recording f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* The finite bucket upper bounds, read off an empty histogram. *)
let bucket_bounds () =
  Array.of_list
    (List.filter Float.is_finite (List.map fst (Hist.buckets (Hist.create ()))))

(* Seeded samples in [1e-5, 10]: safely inside the finite bucket range so
   the sqrt-2 error bound applies without floor/overflow special cases. *)
let samples ~seed n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> 1e-5 +. Rng.float rng 10.)

(* ------------------------------------------------------------------ *)
(* Bucket ladder                                                       *)
(* ------------------------------------------------------------------ *)

let test_bucket_bounds () =
  let b = bucket_bounds () in
  Alcotest.(check int) "64 finite bounds" 64 (Array.length b);
  Alcotest.(check (float 1e-12)) "first bound is 1 microsecond" 1e-6 b.(0);
  for i = 1 to Array.length b - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "bound %d grows" i)
      true
      (b.(i) > b.(i - 1));
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "bound %d ratio is sqrt 2" i)
      sqrt2
      (b.(i) /. b.(i - 1))
  done;
  (* the ladder spans at least 1 microsecond .. 45 minutes *)
  Alcotest.(check bool) "top bound covers long queries" true
    (b.(Array.length b - 1) > 2700.);
  Alcotest.(check bool) "ends with the overflow bucket" true
    (fst (List.nth (Hist.buckets (Hist.create ())) 64) = infinity)

let test_observe_basics () =
  let h = Hist.create () in
  Alcotest.(check int) "empty count" 0 (Hist.count h);
  Alcotest.(check bool) "empty max is nan" true (Float.is_nan (Hist.max_value h));
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Hist.quantile h 0.5));
  List.iter (Hist.observe h) [ 0.002; 0.004; 1.5 ];
  Alcotest.(check int) "count" 3 (Hist.count h);
  Alcotest.(check (float 1e-12)) "sum" 1.506 (Hist.sum h);
  Alcotest.(check (float 1e-12)) "max" 1.5 (Hist.max_value h);
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Hist.buckets h) in
  Alcotest.(check int) "buckets account for every sample" 3 total;
  (* extremes: below the floor and above the ceiling both land somewhere *)
  Hist.observe h 1e-9;
  Hist.observe h 1e9;
  Alcotest.(check int) "extremes counted" 5 (Hist.count h);
  let inf_bucket = List.assoc infinity (Hist.buckets h) in
  Alcotest.(check int) "overflow bucket holds the huge sample" 1 inf_bucket;
  Alcotest.(check (float 1e-3)) "overflow quantile reports tracked max" 1e9
    (Hist.quantile h 1.0);
  Hist.clear h;
  Alcotest.(check int) "clear empties" 0 (Hist.count h)

(* Nearest-rank exact quantile over a sorted copy, the reference the
   histogram estimate is checked against. *)
let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  sorted.(min (n - 1) (rank - 1))

let test_quantile_error_bound () =
  let xs = samples ~seed:11 1000 in
  let h = Hist.create () in
  Array.iter (Hist.observe h) xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  List.iter
    (fun q ->
      let exact = exact_quantile sorted q in
      let est = Hist.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f estimate >= exact" q)
        true (est >= exact);
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f estimate <= exact * sqrt 2" q)
        true
        (est <= exact *. sqrt2 *. (1. +. 1e-9)))
    [ 0.; 0.01; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ]

let test_merge_deterministic () =
  let xs = samples ~seed:13 400 in
  let ha = Hist.create () and hb = Hist.create () and hall = Hist.create () in
  Array.iteri
    (fun i v ->
      Hist.observe (if i mod 2 = 0 then ha else hb) v;
      Hist.observe hall v)
    xs;
  let ab = Hist.copy ha in
  Hist.merge_into ~into:ab hb;
  let ba = Hist.copy hb in
  Hist.merge_into ~into:ba ha;
  Alcotest.(check bool) "merge is commutative on buckets" true
    (Hist.buckets ab = Hist.buckets ba);
  Alcotest.(check bool) "merge equals direct observation" true
    (Hist.buckets ab = Hist.buckets hall);
  Alcotest.(check int) "merged count" (Array.length xs) (Hist.count ab);
  Alcotest.(check (float 1e-9)) "merged sum" (Hist.sum hall) (Hist.sum ab);
  Alcotest.(check (float 1e-12)) "merged max" (Hist.max_value hall)
    (Hist.max_value ab);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "q=%.2f identical after merge" q)
        (Hist.quantile hall q) (Hist.quantile ab q))
    [ 0.5; 0.95; 0.99 ];
  Alcotest.(check int) "merge source unchanged" 200 (Hist.count hb)

(* ------------------------------------------------------------------ *)
(* Registered layer: gating, one namespace, one reset                  *)
(* ------------------------------------------------------------------ *)

let test_recording_gate () =
  Obs.reset ();
  Obs.disable ();
  let h = Obs.histogram "test.gate_seconds" in
  let g = Obs.gauge "test.gate_depth" in
  Obs.observe h 1.0;
  Obs.set g 5;
  Obs.add g 3;
  Obs.snapshot ~now:1.0 ();
  Alcotest.(check int) "observe dropped while off" 0
    (Hist.count (Obs.histogram_value h));
  Alcotest.(check int) "gauge updates dropped while off" 0
    (Obs.value g);
  Alcotest.(check int) "snapshot dropped while off" 0
    (List.length (Obs.snapshots ()));
  with_recording (fun () ->
      let h = Obs.histogram "test.gate_seconds" in
      Obs.observe h 1.0;
      Alcotest.(check int) "observe lands while on" 1
        (Hist.count (Obs.histogram_value h)))

let test_registry_find_or_create () =
  with_recording (fun () ->
      let a = Obs.histogram "test.same_seconds" in
      let b = Obs.histogram "test.same_seconds" in
      Obs.observe a 1.0;
      Obs.observe b 2.0;
      Alcotest.(check int) "same name, same histogram" 2
        (Hist.count (Obs.histogram_value a));
      Alcotest.(check int) "exported once" 1
        (List.length
           (List.filter
              (fun l -> l = "# TYPE jp_test_same_seconds histogram")
              (String.split_on_char '\n' (Obs.exposition ()))));
      (* one namespace across kinds *)
      ignore (Obs.counter "test.same_count");
      Alcotest.check_raises "a counter's name is not a gauge's"
        (Invalid_argument
           "Jp_obs: instrument name registered twice: test.same_count")
        (fun () -> ignore (Obs.gauge "test.same_count"));
      Alcotest.check_raises "a histogram's name is not a counter's"
        (Invalid_argument
           "Jp_obs: instrument name registered twice: test.same_seconds")
        (fun () -> ignore (Obs.counter "test.same_seconds")))

(* One Jp_obs.reset clears every instrument kind at once. *)
let test_reset_clears_all () =
  with_recording (fun () ->
      let c = Obs.counter "test.reset_count"
      and g = Obs.gauge "test.reset_depth"
      and h = Obs.histogram "test.reset_seconds" in
      Obs.add c 3;
      Obs.set g 7;
      Obs.observe h 0.5;
      Obs.snapshot ~now:1.0 ();
      Alcotest.(check (list int)) "recorded" [ 3; 7; 1; 1 ]
        [
          Obs.value c;
          Obs.value g;
          Hist.count (Obs.histogram_value h);
          List.length (Obs.snapshots ());
        ];
      Obs.reset ();
      Alcotest.(check (list int)) "one reset zeroes all four" [ 0; 0; 0; 0 ]
        [
          Obs.value c;
          Obs.value g;
          Hist.count (Obs.histogram_value h);
          List.length (Obs.snapshots ());
        ];
      Alcotest.(check bool) "gauges are not counters" false
        (List.mem_assoc "test.reset_depth" (Obs.counter_values ())))

(* ------------------------------------------------------------------ *)
(* Snapshots under a fake clock                                        *)
(* ------------------------------------------------------------------ *)

let test_snapshot_fake_clock () =
  with_recording (fun () ->
      let g = Obs.gauge "test.snap_depth" in
      Obs.set g 1;
      Obs.snapshot ~now:2.0 ();
      Obs.set g 7;
      Obs.snapshot ~now:1.0 ();
      Obs.snapshot ~now:1.0 ();
      let snaps = Obs.snapshots () in
      Alcotest.(check int) "three snapshots" 3 (List.length snaps);
      Alcotest.(check (list (float 0.))) "sorted by timestamp" [ 1.0; 1.0; 2.0 ]
        (List.map fst snaps);
      let value_at i =
        List.assoc "test.snap_depth" (snd (List.nth snaps i))
      in
      (* values are captured at call time: the ts=2 snapshot (recorded
         first) saw 1; the tied ts=1 snapshots keep recording order *)
      Alcotest.(check int) "tied snapshots keep recording order" 7 (value_at 0);
      Alcotest.(check int) "second tied snapshot" 7 (value_at 1);
      Alcotest.(check int) "late timestamp holds the early value" 1
        (value_at 2))

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                              *)
(* ------------------------------------------------------------------ *)

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let test_exposition_golden () =
  with_recording (fun () ->
      let h = Obs.histogram "test.golden_seconds" in
      let g = Obs.gauge "test.golden_depth" in
      List.iter (Obs.observe h) [ 1e-6; 1.0; 2.0 ];
      Obs.set g 7;
      let out = Obs.exposition () in
      let ls = lines out in
      (* the golden subset: exact expected lines for our instruments,
         built from the published bucket ladder and %.9g formatting *)
      Alcotest.(check bool) "gauge TYPE line" true
        (List.mem "# TYPE jp_test_golden_depth gauge" ls);
      Alcotest.(check bool) "gauge sample line" true
        (List.mem "jp_test_golden_depth 7" ls);
      Alcotest.(check bool) "histogram TYPE line" true
        (List.mem "# TYPE jp_test_golden_seconds histogram" ls);
      let bounds = bucket_bounds () in
      let cumulative b =
        (if 1e-6 <= b then 1 else 0)
        + (if 1.0 <= b then 1 else 0)
        + if 2.0 <= b then 1 else 0
      in
      let expected_buckets =
        Array.to_list
          (Array.map
             (fun b ->
               Printf.sprintf "jp_test_golden_seconds_bucket{le=\"%.9g\"} %d" b
                 (cumulative b))
             bounds)
        @ [ "jp_test_golden_seconds_bucket{le=\"+Inf\"} 3" ]
      in
      let actual_buckets =
        List.filter
          (fun l ->
            String.length l > 30
            && String.sub l 0 30 = "jp_test_golden_seconds_bucket{")
          ls
      in
      Alcotest.(check (list string)) "bucket lines, in ladder order"
        expected_buckets actual_buckets;
      Alcotest.(check bool) "sum line" true
        (List.mem (Printf.sprintf "jp_test_golden_seconds_sum %.9g" 3.000001) ls);
      Alcotest.(check bool) "count line" true
        (List.mem "jp_test_golden_seconds_count 3" ls);
      (* document-level grammar *)
      Alcotest.(check bool) "terminated by # EOF" true
        (match List.rev ls with "# EOF" :: _ -> true | _ -> false);
      Alcotest.(check bool) "ends with newline" true
        (String.length out > 0 && out.[String.length out - 1] = '\n');
      List.iter
        (fun l ->
          let ok =
            String.length l >= 2
            && (String.sub l 0 2 = "# "
               || String.contains l ' '
                  && l.[0] <> ' '
                  && (let c = l.[0] in
                      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'))
          in
          Alcotest.(check bool)
            (Printf.sprintf "line is comment or sample: %s" l)
            true ok)
        ls)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_exposition_counters () =
  with_recording (fun () ->
      Obs.incr Obs.C.service_submitted;
      Obs.incr Obs.C.service_submitted;
      Obs.add Obs.G.cache_bytes 4096;
      let ls = lines (Obs.exposition ()) in
      Alcotest.(check bool) "obs counters exported as counters" true
        (List.mem "# TYPE jp_service_submitted counter" ls);
      Alcotest.(check bool) "counter sample uses _total" true
        (List.mem "jp_service_submitted_total 2" ls);
      (* the resident footprints are levels: gauges, kept once *)
      Alcotest.(check bool) "cache footprint typed gauge" true
        (List.mem "# TYPE jp_cache_resident_bytes gauge" ls);
      Alcotest.(check bool) "cache footprint sample" true
        (List.mem "jp_cache_resident_bytes 4096" ls);
      Alcotest.(check bool) "tile footprint typed gauge" true
        (List.mem "# TYPE jp_tile_resident_bytes gauge" ls);
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " is not exported") false
            (List.exists (fun l -> contains l n) ls))
        [ "jp_cache_bytes"; "jp_tile_bytes" ])

let test_counter_events () =
  with_recording (fun () ->
      let g = Obs.gauge "test.events_depth" in
      Obs.set g 3;
      Obs.snapshot ~now:1.0 ();
      Obs.set g 9;
      Obs.snapshot ~now:2.0 ();
      let trace = Obs.Json.to_string (Obs.chrome_trace ()) in
      Alcotest.(check bool) "counter lane present" true
        (contains trace "\"name\":\"test.events_depth\"");
      Alcotest.(check bool) "C phase events present" true
        (contains trace "\"ph\":\"C\"");
      Alcotest.(check bool) "both sampled values exported" true
        (contains trace "\"args\":{\"value\":3}"
        && contains trace "\"args\":{\"value\":9}"))

let suite =
  [
    Alcotest.test_case "bucket ladder" `Quick test_bucket_bounds;
    Alcotest.test_case "observe basics" `Quick test_observe_basics;
    Alcotest.test_case "quantile error bound" `Quick test_quantile_error_bound;
    Alcotest.test_case "merge deterministic" `Quick test_merge_deterministic;
    Alcotest.test_case "recording gate" `Quick test_recording_gate;
    Alcotest.test_case "registry find-or-create" `Quick test_registry_find_or_create;
    Alcotest.test_case "one reset clears every instrument" `Quick
      test_reset_clears_all;
    Alcotest.test_case "snapshot fake clock" `Quick test_snapshot_fake_clock;
    Alcotest.test_case "exposition golden" `Quick test_exposition_golden;
    Alcotest.test_case "exposition counters" `Quick test_exposition_counters;
    Alcotest.test_case "counter events" `Quick test_counter_events;
  ]
