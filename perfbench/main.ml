(* The benchmark program.  run.py drives it in two processes per run:

     main.exe --phase oracle  --workload W --seed N --expected FILE
     main.exe --phase measure --workload W --seed N --seconds S --trace 0|1
              --expected FILE --result FILE

   The oracle process computes reference checksums with independent
   engines; the measuring process sets up, measures, verifies every
   output against those checksums and prints one JSON object as its last
   line.  [--phase calibrate] prints a fresh machine record in the
   format of machine.json, for re-pinning the cost model and the quiet
   sentinel time on a new host. *)

module Cost = Jp_matrix.Cost
module Json = Jp_obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) value;
      go rest
    | [] -> ()
    | arg :: _ -> die "unexpected argument %s" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg name =
  match Hashtbl.find_opt args name with Some v -> v | None -> die "missing --%s" name

let int_arg name =
  match int_of_string_opt (arg name) with Some v -> v | None -> die "--%s: not an integer" name

let machine_fields (m : Cost.machine) ~sentinel_s =
  [
    ("sentinel_s", Json.Float sentinel_s);
    ("ts", Json.Float m.ts);
    ("tm", Json.Float m.tm);
    ("ti", Json.Float m.ti);
    ("count_word", Json.Float m.count_word);
    ("bool_word", Json.Float m.bool_word);
    ("cores", Json.Int m.cores);
  ]

(* The pinned cost model: every plan depends only on the data. *)
let pin_machine path =
  let json =
    match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error e -> die "%s: %s" path e
  in
  let field k =
    match Option.bind (Json.member k json) Json.to_float_opt with
    | Some v -> v
    | None -> die "%s: missing number %s" path k
  in
  let m =
    {
      Cost.ts = field "ts";
      tm = field "tm";
      ti = field "ti";
      count_word = field "count_word";
      bool_word = field "bool_word";
      cores = int_of_float (field "cores");
    }
  in
  Cost.set_machine m;
  Measure.Sentinel.baseline := field "sentinel_s";
  m

let calibrate () =
  let runs = Array.init 9 (fun _ -> Cost.calibrate ()) in
  let med f = Measure.median (Array.map f runs) in
  let m =
    {
      Cost.ts = med (fun m -> m.Cost.ts);
      tm = med (fun m -> m.Cost.tm);
      ti = med (fun m -> m.Cost.ti);
      count_word = med (fun m -> m.Cost.count_word);
      bool_word = med (fun m -> m.Cost.bool_word);
      cores = runs.(0).cores;
    }
  in
  (* Pin the sentinel on a quiet host: the median of many readings. *)
  let sentinel_s = Measure.median (Array.init 500 (fun _ -> Measure.Sentinel.time ())) in
  print_endline (Json.to_string_pretty (Json.Obj (machine_fields m ~sentinel_s)))

type workload =
  | Engine of Engines.t
  | Served

let workload_of = function
  | "dense-2path" -> Engine Engines.dense_2path
  | "sparse-2path" -> Engine Engines.sparse_2path
  | "counted-ssj" -> Engine Engines.counted_ssj
  | "served-open" -> Served
  | w -> die "unknown workload %s" w

let oracle workload ~seed =
  match workload with
  | Engine w -> Array.map w.oracle (Inputs.queries ~seed w.specs)
  | Served -> Array.map Served.oracle (Served.pool ~seed)

(* Repeats the set-up and returns the last state with the median of the
   scaled times (see [Measure.Sentinel]) and the raw ones.  Before each
   repetition, [discard] releases the previous state and the heap is
   compacted, so every repetition starts from the same heap. *)
let repeated_setup ?(discard = ignore) f =
  let scaled = Array.make Config.setup_repeats 0. in
  let raw = Array.make Config.setup_repeats 0. in
  let state = ref None in
  for k = 0 to Config.setup_repeats - 1 do
    Option.iter discard !state;
    state := None;
    Gc.compact ();
    let before = Measure.Sentinel.reading () in
    let st, t = Measure.time f in
    let after = Measure.Sentinel.reading () in
    state := Some st;
    raw.(k) <- t;
    scaled.(k) <- t *. Measure.Sentinel.scale ((before +. after) /. 2.)
  done;
  Gc.compact ();
  (Option.get !state, Measure.median scaled, raw)

let measure workload ~seed ~seconds ~trace ~expected =
  match workload with
  | Engine w ->
    let queries, setup_s, times = repeated_setup (fun () -> Inputs.queries ~seed w.specs) in
    if Array.length expected <> Array.length queries then die "expected checksums do not match the query list";
    let o =
      if trace then Engines.trace w ~queries ~expected ~seconds
      else Engines.measure w ~queries ~expected ~seconds ~setup_s
    in
    (o, times)
  | Served ->
    let st, setup_s, times =
      repeated_setup
        ~discard:(fun (st : Served.state) -> Jp_service.shutdown st.svc)
        (fun () -> Served.setup ~seed)
    in
    if Array.length expected <> Array.length st.pool then die "expected checksums do not match the pool";
    let o =
      if trace then Served.trace st ~expected ~seed ~seconds
      else Served.measure st ~expected ~seed ~seconds ~setup_s
    in
    (o, times)

let () =
  match arg "phase" with
  | "calibrate" -> calibrate ()
  | "oracle" ->
    ignore (pin_machine (arg "machine"));
    Measure.write_sums (arg "expected") (oracle (workload_of (arg "workload")) ~seed:(int_arg "seed"))
  | "measure" ->
    let machine = pin_machine (arg "machine") in
    let name = arg "workload" and seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
    let trace = int_arg "trace" = 1 in
    let expected = Measure.read_sums (arg "expected") in
    let o, setup_times = measure (workload_of name) ~seed ~seconds ~trace ~expected in
    let registry = if trace then Report.per_layer else Report.end_to_end in
    let metrics = Report.metrics_json registry o.metrics in
    let summary =
      [
        ("correct", Json.Bool (o.wrong = 0));
        ("attempted", Json.Int o.attempted);
        ("failed", Json.Int o.failed);
        ("metrics", metrics);
      ]
    in
    let result =
      Json.Obj
        ([
           ("workload", Json.String name);
           ("seed", Json.Int seed);
           ("seconds", Json.Float seconds);
           ("trace", Json.Bool trace);
           ("machine", Json.Obj (machine_fields machine ~sentinel_s:!Measure.Sentinel.baseline));
           ("raw_setup_s", Json.List (Array.to_list (Array.map (fun t -> Json.Float t) setup_times)));
         ]
        @ summary @ o.detail)
    in
    Out_channel.with_open_text (arg "result") (fun oc ->
        output_string oc (Json.to_string_pretty result);
        output_char oc '\n');
    print_endline (Json.to_string (Json.Obj summary));
    if o.wrong > 0 then begin
      Printf.eprintf "perfbench: %d outputs disagreed with the oracle\n" o.wrong;
      exit 1
    end
  | p -> die "unknown phase %s" p
