(* The closed-loop engine workloads: dense-2path, sparse-2path and
   counted-ssj.  One client, one domain, a fixed query list replayed in
   rounds until the run's time is up. *)

module Relation = Jp_relation.Relation
module Optimizer = Joinproj.Optimizer
module Partition = Joinproj.Partition
module Two_path = Joinproj.Two_path
module Expand = Jp_wcoj.Expand
module Json = Jp_obs.Json
open Measure

type kind =
  | Boolean  (** [Two_path.project]: the engine plans for itself *)
  | Counted  (** [Mm_ssj.join ~c:2]: the counted join-project *)

type t = { kind : kind; specs : Config.spec list; oracle : Inputs.query -> sum }

(* The sparse oracle forces a partitioned plan with the combinatorial
   heavy part, a different code path from the WCOJ expansion the
   optimizer picks for these inputs. *)
let forced_partition =
  {
    Optimizer.decision = Optimizer.Partitioned { d1 = 4; d2 = 4 };
    est_out = 0;
    join_size = 0;
    est_seconds = 0.;
  }

let dense_2path =
  {
    kind = Boolean;
    specs = Config.dense_2path;
    oracle = (fun q -> pairs_sum (Expand.project ~r:q.rel ~s:q.rel ()));
  }

let sparse_2path =
  {
    kind = Boolean;
    specs = Config.sparse_2path;
    oracle =
      (fun q ->
        pairs_sum
          (Two_path.project ~strategy:Two_path.Combinatorial ~plan:forced_partition
             ~r:q.rel ~s:q.rel ()));
  }

let counted_ssj =
  {
    kind = Counted;
    specs = Config.counted_ssj;
    oracle = (fun q -> upper_pairs_sum ~c:2 (Expand.project_counts ~r:q.rel ~s:q.rel ()));
  }

let run kind (q : Inputs.query) =
  match kind with
  | Boolean -> Two_path.project ~domains:1 ~r:q.rel ~s:q.rel ()
  | Counted -> Jp_ssj.Mm_ssj.join ~domains:1 ~c:2 q.rel

let plan_prepared kind prepared =
  match kind with
  | Boolean -> Optimizer.plan_prepared ~domains:1 prepared ()
  | Counted -> Optimizer.plan_counts_prepared ~domains:1 prepared ()

type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

(* Runs query [i] once and returns its latency.  The checksum is taken
   after the clock stops. *)
let execute tally w queries expected i =
  let t0 = now () in
  let result = try Ok (run w.kind queries.(i)) with e -> Error e in
  let dt = now () -. t0 in
  tally.attempted <- tally.attempted + 1;
  (match result with
  | Ok p ->
    if pairs_sum p <> expected.(i) then begin
      tally.failed <- tally.failed + 1;
      tally.wrong <- tally.wrong + 1
    end
  | Error e ->
    Printf.eprintf "perfbench: %s raised %s\n%!" queries.(i).Inputs.label
      (Printexc.to_string e);
    tally.failed <- tally.failed + 1);
  dt

type rounds = {
  round_s : float array;  (** summed query latencies of each kept round, scaled *)
  latency : float array;  (** every query latency of the kept rounds, scaled *)
  per_query : float array array;  (** scaled latencies of query i across kept rounds *)
  raw_round_s : float array;  (** [round_s] before scaling *)
  host_scale : float;  (** median scaling factor of the kept rounds *)
  burst : int;  (** rounds left out for a burst *)
}

(* Replays the query list in rounds for [seconds], and further until
   enough kept rounds and samples are in.  [f i] runs query [i] and
   returns its latency.  A sentinel reading is taken before the first
   round and after each one; each round's times are scaled by the mean
   of its two readings ([Sentinel.scale]).  A round whose two readings
   differ by more than [Sentinel.burst_factor] saw the host change speed
   inside it and is left out; a run that still lacks rounds at
   [Config.max_overrun] × [seconds] keeps them all. *)
let rounds ~seconds ~min_samples nq f =
  let all = ref [] in
  let sentinel = ref (Sentinel.reading ()) in
  let t_start = now () in
  let elapsed () = now () -. t_start in
  let enough keep =
    let kept = List.length (List.filter keep !all) in
    kept >= Config.min_rounds && kept * nq >= min_samples
  in
  let calm (before, after, _) =
    Float.max before after <= Sentinel.burst_factor *. Float.min before after
  in
  while not ((elapsed () >= seconds && enough calm) || elapsed () >= Config.max_overrun *. seconds) do
    let lat = Array.init nq f in
    let before = !sentinel in
    sentinel := Sentinel.reading ();
    all := (before, !sentinel, lat) :: !all
  done;
  let keep = if enough calm then calm else fun _ -> true in
  if not (enough keep) then
    failwith (Printf.sprintf "only %d rounds in %.0f s" (List.length !all) (elapsed ()));
  let kept = Array.of_list (List.rev (List.filter keep !all)) in
  let scales = Array.map (fun (before, after, _) -> Sentinel.scale ((before +. after) /. 2.)) kept in
  let scaled = Array.mapi (fun k (_, _, lat) -> Array.map (fun t -> t *. scales.(k)) lat) kept in
  let sum = Array.fold_left ( +. ) 0. in
  {
    round_s = Array.map sum scaled;
    latency = Array.concat (Array.to_list scaled);
    per_query = Array.init nq (fun i -> Array.map (fun lat -> lat.(i)) scaled);
    raw_round_s = Array.map (fun (_, _, lat) -> sum lat) kept;
    host_scale = median scales;
    burst = List.length !all - Array.length kept;
  }

let plans w queries =
  Array.map (fun (q : Inputs.query) -> plan_prepared w.kind (Optimizer.prepare ~r:q.rel ~s:q.rel)) queries

let plans_json queries plans =
  Json.List
    (Array.to_list
       (Array.mapi
          (fun i (p : Optimizer.plan) ->
            let q : Inputs.query = queries.(i) in
            let d1, d2 =
              match p.decision with
              | Optimizer.Partitioned { d1; d2 } -> (Json.Int d1, Json.Int d2)
              | Optimizer.Wcoj -> (Json.Null, Json.Null)
            in
            Json.Obj
              [
                ("query", Json.String q.label);
                ("tuples", Json.Int (Relation.size q.rel));
                ("decision", Json.String (Optimizer.decision_to_string p.decision));
                ("d1", d1);
                ("d2", d2);
                ("est_out", Json.Int p.est_out);
              ])
          plans))

let mm_plans plans =
  Array.fold_left
    (fun n (p : Optimizer.plan) ->
      match p.decision with Optimizer.Partitioned _ -> n + 1 | Optimizer.Wcoj -> n)
    0 plans

(* End-to-end run: tracing off. *)
let measure w ~queries ~expected ~seconds ~setup_s =
  let tally = { attempted = 0; failed = 0; wrong = 0 } in
  let nq = Array.length queries in
  (* One verified warm-up round outside the measurement. *)
  for i = 0 to nq - 1 do
    ignore (execute tally w queries expected i)
  done;
  let r =
    rounds ~seconds ~min_samples:(samples_for 99) nq (execute tally w queries expected)
  in
  let throughput = float_of_int nq /. median r.round_s in
  let verified = float_of_int (tally.attempted - tally.failed) /. float_of_int tally.attempted in
  let plans = plans w queries in
  {
    Report.attempted = tally.attempted;
    failed = tally.failed;
    wrong = tally.wrong;
    metrics =
      [
        ("throughput_qps", throughput);
        ("goodput_qps", throughput *. verified);
        ("latency_p50_ms", ms (percentile 50 r.latency));
        ("latency_p95_ms", ms (percentile 95 r.latency));
        ("latency_p99_ms", ms (percentile 99 r.latency));
        ("setup_s", setup_s);
      ];
    detail =
      [
        ("raw_round_ms", Json.List (Array.to_list (Array.map (fun t -> Json.Float (ms t)) r.raw_round_s)));
        ("raw_throughput_qps", Json.Float (float_of_int nq /. median r.raw_round_s));
        ("host_scale", Json.Float r.host_scale);
        ("burst_rounds", Json.Int r.burst);
        ("samples", Json.Int (Array.length r.latency));
        ("mm_plans", Json.Int (mm_plans plans));
        ("plans", plans_json queries plans);
      ];
  }

(* Traced run: an untraced half-length phase for the reference
   throughput and the GC figures, then a traced phase.  In the traced
   phase each query first runs its layers one by one through their
   public entries (recording off, timed here), then runs whole with
   [Jp_obs] recording, which supplies the merge phases that have no
   public entry, the plan record and the work counters.  A layer's time
   is the median over rounds for each query, averaged over the query
   list. *)
let trace w ~queries ~expected ~seconds =
  let tally = { attempted = 0; failed = 0; wrong = 0 } in
  let nq = Array.length queries in
  for i = 0 to nq - 1 do
    ignore (execute tally w queries expected i)
  done;
  let gc0 = Gc.quick_stat () in
  let plain = rounds ~seconds:(seconds /. 2.) ~min_samples:0 nq (execute tally w queries expected) in
  let gc1 = Gc.quick_stat () in
  let plain_queries = float_of_int (Array.length plain.latency) in
  let allocated (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let plans = plans w queries in
  let layer_ms = Hashtbl.create 8 in
  let note name i v =
    let per_query =
      match Hashtbl.find_opt layer_ms name with
      | Some a -> a
      | None ->
        let a = Array.init nq (fun _ -> Samples.create ()) in
        Hashtbl.add layer_ms name a;
        a
    in
    Samples.push per_query.(i) (ms v)
  in
  let counts = Hashtbl.create 8 in
  let cells = ref 0 in
  let est_out_ratio = Array.make nq nan in
  let trace_query i =
    let r = queries.(i).Inputs.rel in
    let s = r in
    let prepared, t = time (fun () -> Optimizer.prepare ~r ~s) in
    note "optimizer.prepare_ms" i t;
    let plan, t = time (fun () -> plan_prepared w.kind prepared) in
    note "optimizer.plan_ms" i t;
    (match (plan.decision, w.kind) with
    | Optimizer.Wcoj, Boolean ->
      note "wcoj.expand_ms" i (snd (time (fun () -> Expand.project ~r ~s ())))
    | Optimizer.Wcoj, Counted ->
      note "wcoj.expand_ms" i (snd (time (fun () -> Expand.project_counts ~r ~s ())))
    | Optimizer.Partitioned { d1; d2 }, Boolean ->
      let p, t = time (fun () -> Partition.make ~r ~s ~d1 ~d2 ()) in
      note "partition.make_ms" i t;
      note "heavy_mm.ms" i (snd (time (fun () -> Two_path.heavy_product ~domains:1 ~r ~s p)));
      let hx = Array.length p.Partition.heavy_x
      and hy = Array.length p.Partition.heavy_y
      and hz = Array.length p.Partition.heavy_z in
      cells := !cells + (hx * hy) + (hy * hz)
    | Optimizer.Partitioned _, Counted ->
      (* The counted path partitions and multiplies inside
         [project_counts]; its product time comes from the plan record
         below. *)
      ());
    Jp_obs.reset ();
    Jp_obs.enable ();
    let dt = Fun.protect ~finally:Jp_obs.disable (fun () -> execute tally w queries expected i) in
    (match List.rev (Jp_obs.plan_records ()) with
    | record :: _ ->
      List.iter
        (fun (phase, layer) ->
          List.iter (fun (n, sec) -> if n = phase then note layer i sec) record.Jp_obs.phases)
        [
          ("light-merge", "light_merge.ms");
          ("heavy-count-mm", "count_mm.ms");
          ("count-merge", "count_merge.ms");
        ];
      if record.actual_out > 0 then
        est_out_ratio.(i) <- float_of_int record.est_out /. float_of_int record.actual_out
    | [] -> ());
    List.iter
      (fun name ->
        Hashtbl.replace counts name
          (obs_counter name + Option.value ~default:0 (Hashtbl.find_opt counts name)))
      [
        "mm.bool_word_ops";
        "mm.count_word_ops";
        "light.probes";
        "dedup.stamp_hits";
        "dedup.stamp_misses";
        "sort.radix_bytes";
      ];
    dt
  in
  let traced = rounds ~seconds ~min_samples:0 nq trace_query in
  Jp_obs.reset ();
  let calls = float_of_int (Array.length traced.latency) in
  let per_call name =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name)) /. calls
  in
  (* A query whose plan skips a layer contributes 0 to its mean. *)
  let layer name =
    match Hashtbl.find_opt layer_ms name with
    | None -> 0.
    | Some per_query ->
      mean
        (Array.map
           (fun smp -> if Samples.length smp = 0 then 0. else median (Samples.to_array smp))
           per_query)
  in
  let hits = per_call "dedup.stamp_hits" and misses = per_call "dedup.stamp_misses" in
  let est_seconds_ratio =
    median
      (Array.mapi
         (fun i (p : Optimizer.plan) -> p.est_seconds /. median plain.per_query.(i))
         plans)
  in
  let ratios = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list est_out_ratio)) in
  let metrics =
    List.map
      (fun name -> (name, layer name))
      [
        "optimizer.prepare_ms";
        "optimizer.plan_ms";
        "partition.make_ms";
        "heavy_mm.ms";
        "wcoj.expand_ms";
        "light_merge.ms";
        "count_mm.ms";
        "count_merge.ms";
      ]
    @ [
        ("optimizer.mm_plans", float_of_int (mm_plans plans));
        ("optimizer.est_out_ratio", if ratios = [||] then 0. else median ratios);
        ("optimizer.est_seconds_ratio", est_seconds_ratio);
        ("partition.heavy_cells", float_of_int !cells /. calls);
        ("heavy_mm.word_ops", per_call "mm.bool_word_ops");
        ("light_merge.probes", per_call "light.probes");
        ("light_merge.dup_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
        ("finalize.radix_bytes", per_call "sort.radix_bytes");
        ("count_mm.word_ops", per_call "mm.count_word_ops");
        ( "gc.alloc_mb_per_query",
          (allocated gc1 -. allocated gc0) *. float_of_int (Sys.word_size / 8) /. 1e6 /. plain_queries );
        ( "gc.major_collections",
          float_of_int (gc1.major_collections - gc0.major_collections) *. 1000. /. plain_queries );
        ( "tracing.overhead_pct",
          100. *. ((median traced.round_s /. median plain.round_s) -. 1.) );
      ]
  in
  {
    Report.attempted = tally.attempted;
    failed = tally.failed;
    wrong = tally.wrong;
    metrics;
    detail =
      [
        ("untraced_rounds", Json.Int (Array.length plain.round_s));
        ("traced_rounds", Json.Int (Array.length traced.round_s));
        ("burst_rounds", Json.Int (plain.burst + traced.burst));
        ("mm_plans", Json.Int (mm_plans plans));
        ("plans", plans_json queries plans);
      ];
  }
