module Obs = Jp_obs
module Json = Testkit.Json
module Pairs = Jp_relation.Pairs

(* Every test toggles the process-global recorder; always leave it off
   and empty for whoever runs next. *)
let with_recording f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let parse_json str =
  match Json.of_string str with
  | Ok v -> v
  | Error e -> Alcotest.failf "json parse error: %s" e

let member name v =
  match Json.member name v with
  | Some x -> x
  | None -> Alcotest.failf "member %S missing" name

let find_node name nodes =
  match List.find_opt (fun n -> n.Obs.name = name) nodes with
  | Some n -> n
  | None -> Alcotest.failf "span %S not found" name

let test_span_nesting () =
  with_recording (fun () ->
      Obs.span "outer" (fun () ->
          Obs.span "first" (fun () -> ());
          Obs.span "second" (fun () -> ());
          Obs.span "first" (fun () -> ()));
      Obs.span "root2" (fun () -> ());
      let tree = Obs.span_tree () in
      Alcotest.(check (list string))
        "roots in first-call order" [ "outer"; "root2" ]
        (List.map (fun n -> n.Obs.name) tree);
      let outer = find_node "outer" tree in
      Alcotest.(check int) "outer called once" 1 outer.Obs.calls;
      Alcotest.(check (list string))
        "children in first-call order" [ "first"; "second" ]
        (List.map (fun n -> n.Obs.name) outer.Obs.children);
      let first = find_node "first" outer.Obs.children in
      Alcotest.(check int) "repeat calls aggregate" 2 first.Obs.calls;
      Alcotest.(check bool)
        "parent time covers children" true
        (outer.Obs.seconds
        >= List.fold_left
             (fun acc n -> acc +. n.Obs.seconds)
             0.0 outer.Obs.children))

let test_span_exception_unwinds () =
  with_recording (fun () ->
      (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
      Obs.span "after" (fun () -> ());
      let tree = Obs.span_tree () in
      (* "after" must be a root: the failed span popped itself off the
         stack on the way out. *)
      Alcotest.(check (list string))
        "exception closes the span" [ "boom"; "after" ]
        (List.map (fun n -> n.Obs.name) tree))

let test_counter_reset () =
  let c = Obs.counter "test.obs_counter" in
  with_recording (fun () ->
      Obs.add c 5;
      Obs.incr c;
      Alcotest.(check int) "accumulates" 6 (Obs.value c);
      Obs.reset ();
      Alcotest.(check int) "reset clears" 0 (Obs.value c);
      Alcotest.(check bool)
        "registered in counter_values" true
        (List.mem_assoc "test.obs_counter" (Obs.counter_values ())))

let test_disabled_noop () =
  Obs.disable ();
  Obs.reset ();
  let c = Obs.counter "test.obs_disabled" in
  Obs.add c 7;
  Alcotest.(check int) "adds dropped while off" 0 (Obs.value c);
  let x = Obs.span "off" (fun () -> 41 + 1) in
  Alcotest.(check int) "span still runs f" 42 x;
  Alcotest.(check int) "no events recorded" 0 (List.length (Obs.span_tree ()));
  Obs.record_plan ~label:"off" ~decision:"wcoj" ~est_out:1 ~join_size:1
    ~est_seconds:0.0 ~actual_out:1 ~actual_seconds:0.0 ~phases:[] ();
  Alcotest.(check int) "plan records dropped" 0
    (List.length (Obs.plan_records ()))

let test_chrome_trace_parses_back () =
  with_recording (fun () ->
      Obs.span "alpha" (fun () -> Obs.span "beta" (fun () -> ()));
      let c = Obs.counter "test.obs_trace" in
      Obs.add c 3;
      let doc = parse_json (Json.to_string (Obs.chrome_trace ())) in
      let events =
        match Json.to_list_opt (member "traceEvents" doc) with
        | Some l -> l
        | None -> Alcotest.fail "traceEvents is not a list"
      in
      Alcotest.(check int) "one event per span" 2 (List.length events);
      let names =
        List.filter_map (fun e -> Json.to_string_opt (member "name" e)) events
      in
      Alcotest.(check bool) "alpha present" true (List.mem "alpha" names);
      Alcotest.(check bool) "beta present" true (List.mem "beta" names);
      List.iter
        (fun e ->
          Alcotest.(check (option string))
            "complete event" (Some "X")
            (Json.to_string_opt (member "ph" e));
          (match Json.to_float_opt (member "ts" e) with
          | Some ts -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
          | None -> Alcotest.fail "ts missing");
          match Json.to_float_opt (member "dur" e) with
          | Some dur -> Alcotest.(check bool) "dur >= 0" true (dur >= 0.0)
          | None -> Alcotest.fail "dur missing")
        events;
      match
        Json.to_int_opt
          (member "test.obs_trace" (member "counters" (member "otherData" doc)))
      with
      | Some 3 -> ()
      | other ->
        Alcotest.failf "counter missing from otherData (got %s)"
          (match other with Some n -> string_of_int n | None -> "nothing"))

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\n\t");
        ("i", Json.Int (-42));
        ("f", Json.Float 0.35);
        ("t", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  Alcotest.(check bool)
    "compact form round-trips" true
    (parse_json (Json.to_string doc) = doc);
  Alcotest.(check bool)
    "pretty form round-trips" true
    (parse_json (Json.to_string_pretty doc) = doc)

(* A deterministic partitioned workload: skewed so Algorithm 3 picks the
   matrix path and every counter family fires. *)
let workload () =
  let r = Gen.skewed_relation ~seed:7 ~nx:60 ~ny:40 ~edges:900 () in
  Joinproj.Two_path.project ~r ~s:r ()

let counters_of_run () =
  with_recording (fun () ->
      ignore (workload ());
      List.filter (fun (_, v) -> v <> 0) (Obs.counter_values ()))

let test_counter_determinism () =
  let first = counters_of_run () in
  let second = counters_of_run () in
  Alcotest.(check bool) "some counters fired" true (first <> []);
  Alcotest.(check (list (pair string int)))
    "identical runs produce identical counters" first second

let test_plan_vs_actual_record () =
  with_recording (fun () ->
      let pairs = workload () in
      match Obs.plan_records () with
      | [ p ] ->
        Alcotest.(check string) "label" "two_path" p.Obs.label;
        Alcotest.(check int)
          "actual_out is the result size" (Pairs.count pairs) p.Obs.actual_out;
        Alcotest.(check bool) "phases recorded" true (p.Obs.phases <> []);
        let phase_sum = List.fold_left (fun a (_, t) -> a +. t) 0.0 p.Obs.phases in
        Alcotest.(check bool)
          "phases sum within total" true
          (phase_sum <= p.Obs.actual_seconds +. 1e-3);
        Alcotest.(check bool)
          "decision rendered" true
          (String.length p.Obs.decision > 0)
      | records -> Alcotest.failf "expected 1 plan record, got %d" (List.length records))

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span unwinds on exception" `Quick test_span_exception_unwinds;
    Alcotest.test_case "counter add and reset" `Quick test_counter_reset;
    Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "chrome trace parses back" `Quick test_chrome_trace_parses_back;
    Alcotest.test_case "json round-trips" `Quick test_json_roundtrip;
    Alcotest.test_case "counters deterministic across runs" `Quick
      test_counter_determinism;
    Alcotest.test_case "plan-vs-actual record" `Quick test_plan_vs_actual_record;
  ]
