(* served-open: seeded Poisson arrivals at a fixed rate, sent by one
   generator on the main domain to a one-worker [Jp_service] with the
   overload controller, a deadline and a result cache. *)

module Two_path = Joinproj.Two_path
module Expand = Jp_wcoj.Expand
module Engine = Jp_query.Engine
module Json = Jp_obs.Json
open Measure

type flavour = Mm | Nonmm | Ssj | Cq of Jp_query.Cq.t

type pooled = { query : Inputs.query; flavour : flavour }

(* Acyclic queries for the decomposition planner: a boolean head, a
   dangling variable, a 3-path and a semijoin.  R, S and T all name the
   query's sub-relation. *)
let cq_texts =
  [|
    "Q() :- R(a, b), S(c, b)";
    "Q(a) :- R(a, b), S(c, b)";
    "Q(a, d) :- R(a, b), S(c, b), T(c, d)";
    "Q(a) :- R(a, b), S(b, c)";
  |]

let pool ~seed =
  let cqs = Array.map (fun t -> Result.get_ok (Jp_query.Cq.parse t)) cq_texts in
  let queries = Inputs.queries ~seed (List.map snd Config.served_pool) in
  let flavours =
    List.concat_map
      (fun (f, (spec : Config.spec)) ->
        List.init spec.queries (fun i ->
            match f with
            | Config.Mm -> Mm
            | Config.Nonmm -> Nonmm
            | Config.Ssj -> Ssj
            | Config.Cq -> Cq cqs.(i mod Array.length cqs)))
      Config.served_pool
  in
  Array.of_list (List.mapi (fun d flavour -> { query = queries.(d); flavour }) flavours)

let cq_sum ?policy ?guard ?cancel ?cache rel q =
  let catalog = [ ("R", rel); ("S", rel); ("T", rel) ] in
  if q.Jp_query.Cq.head = [] then
    match Engine.boolean ~domains:1 ?policy ?guard ?cancel ?cache catalog q with
    | Ok b -> bool_sum b
    | Error e -> failwith e
  else
    match Engine.run ~domains:1 ?policy ?guard ?cancel ?cache catalog q with
    | Ok t -> tuples_sum t
    | Error e -> failwith e

(* What a worker runs, as the CLI's [serve] does: the cache also serves
   prepared statistics and heavy products to the engines. *)
let execute ?guard ~cancel ~cache p =
  let r = p.query.rel in
  match p.flavour with
  | Mm ->
    let memo = Jp_cache.two_path_memo cache ~r ~s:r in
    pairs_sum (Two_path.project ~domains:1 ?guard ~cancel ~memo ~r ~s:r ())
  | Nonmm ->
    pairs_sum
      (Two_path.project ~domains:1 ~strategy:Two_path.Combinatorial ?guard ~cancel ~r ~s:r ())
  | Ssj -> pairs_sum (Jp_ssj.Mm_ssj.join ~domains:1 ?guard ~cancel ~cache ~c:2 r)
  | Cq q -> cq_sum ?guard ~cancel ~cache r q

(* Independent engines: the full WCOJ expansion, and the pure
   Yannakakis program for the CQs. *)
let oracle p =
  let r = p.query.rel in
  match p.flavour with
  | Mm | Nonmm -> pairs_sum (Expand.project ~r ~s:r ())
  | Ssj -> upper_pairs_sum ~c:2 (Expand.project_counts ~r ~s:r ())
  | Cq q -> cq_sum ~policy:Jp_query.Planner.Never_mm r q

let service_config =
  {
    Jp_service.default with
    workers = 1;
    queue_capacity = Config.served_queue_capacity;
    default_deadline_s = Some Config.served_deadline_s;
    controller = Some Jp_service.Overload.default;
  }

let fresh_cache () =
  Jp_cache.create
    ~config:{ Jp_cache.default_config with budget_bytes = Config.served_cache_bytes }
    ()

(* The set-up a user of the service pays: inputs, cache and service. *)
type state = { pool : pooled array; cache : Jp_cache.t; svc : Jp_service.t }

let setup ~seed =
  let pool = pool ~seed in
  let cache = fresh_cache () in
  { pool; cache; svc = Jp_service.create service_config }

let result_tag : int Jp_cache.tag = Jp_cache.tag "perfbench.served"

type served = {
  reports : int Jp_service.report array;
  latency : float array;  (** from due time; a failed query counts the deadline *)
  late : float array;  (** generator lateness at each submission *)
  capacity : float;  (** executed answers per second of worker busy time *)
  goodput : float;  (** verified answers per second of the stream *)
  failed : int;
  wrong : int;
}

(* Replays [count] seeded arrivals against [st.svc], waits for every
   answer and shuts the service down. *)
let serve st ~expected ~seed ~count =
  let n = count in
  let np = Array.length st.pool in
  let popularity = Jp_workload.Zipf.create ~exponent:Config.served_zipf np in
  let rank_to_query = Array.init np Fun.id in
  Jp_util.Rng.shuffle (Jp_util.Rng.create (seed + 29)) rank_to_query;
  let g = Jp_util.Rng.create (seed + 13) in
  let ident = Array.init n (fun _ -> rank_to_query.(Jp_workload.Zipf.sample popularity g)) in
  let schedule =
    Jp_workload.Arrivals.schedule ~process:Jp_workload.Arrivals.Poisson ~seed
      ~rate:Config.served_rate_qps ~count:n ()
  in
  let bindings =
    Array.mapi
      (fun d p ->
        let key = Jp_cache.Key.of_relations ~kind:"perfbench.served" ~params:[ d ] [ p.query.rel ] in
        Jp_cache.binding st.cache result_tag key
          ~bytes_of:(fun _ -> (16 * expected.(d).count) + 64)
          ~verify:(fun v -> v = to_int expected.(d))
          ())
      st.pool
  in
  let busy = Array.make n 0. and done_at = Array.make n nan in
  let called = Array.make n 0. and returned = Array.make n 0. in
  let work i d ~cancel ~attempt:_ ~degraded =
    let t0 = now () in
    let guard = if degraded then Some Jp_adaptive.Guard.safe else None in
    let v = to_int (execute ?guard ~cancel ~cache:st.cache st.pool.(d)) in
    let t1 = now () in
    busy.(i) <- busy.(i) +. (t1 -. t0);
    done_at.(i) <- t1;
    v
  in
  let tickets = Array.make n None in
  let start =
    Jp_workload.Arrivals.drive ~now ~sleep:Unix.sleepf ~schedule (fun i ->
        called.(i) <- now ();
        let d = ident.(i) in
        tickets.(i) <- Some (Jp_service.submit st.svc ~key:i ~cached:bindings.(d) (work i d));
        returned.(i) <- now ())
  in
  let reports = Array.map (fun t -> Jp_service.await (Option.get t)) tickets in
  Jp_service.shutdown st.svc;
  let failed = ref 0 and wrong = ref 0 and ok = ref 0 and last = ref start in
  let answered = Array.make n false in
  let latency =
    Array.mapi
      (fun i (rep : int Jp_service.report) ->
        let due = start +. schedule.(i) in
        match rep.outcome with
        | Ok v when v = to_int expected.(ident.(i)) ->
          incr ok;
          answered.(i) <- true;
          let finish = if rep.cache_hit then returned.(i) else done_at.(i) in
          last := Float.max !last finish;
          finish -. due
        | Ok _ ->
          incr wrong;
          incr failed;
          Config.served_deadline_s
        | Error e ->
          Printf.eprintf "perfbench: served query %d: %s\n%!" i (Jp_service.error_to_string e);
          incr failed;
          Config.served_deadline_s)
      reports
  in
  (* Worker capacity: executed answers per second of busy time,
     the median over 16 consecutive chunks of the stream.  Cache hits
     take no worker time and are left out. *)
  let chunks = 16 in
  let capacity =
    median
      (Array.init chunks (fun k ->
           let executed = ref 0 and busy_s = ref 0. in
           for i = k * n / chunks to ((k + 1) * n / chunks) - 1 do
             if answered.(i) && not reports.(i).cache_hit then begin
               incr executed;
               busy_s := !busy_s +. busy.(i)
             end
           done;
           float_of_int !executed /. !busy_s))
  in
  {
    reports;
    latency;
    late = Array.mapi (fun i c -> c -. (start +. schedule.(i))) called;
    capacity;
    goodput = float_of_int !ok /. (!last -. start);
    failed = !failed;
    wrong = !wrong;
  }

let count_for seconds = max (samples_for 99) (int_of_float (Float.ceil (Config.served_rate_qps *. seconds)))

let count r f =
  Array.fold_left (fun k (rep : int Jp_service.report) -> if f rep then k + 1 else k) 0 r.reports

let outcome e (rep : int Jp_service.report) = rep.outcome = Error e

let measure st ~expected ~seed ~seconds ~setup_s =
  let r = serve st ~expected ~seed ~count:(count_for seconds) in
  let hits = count r (fun rep -> rep.cache_hit) in
  {
    Report.attempted = Array.length r.reports;
    failed = r.failed;
    wrong = r.wrong;
    metrics =
      [
        ("throughput_qps", r.capacity);
        ("goodput_qps", r.goodput);
        ("latency_p50_ms", ms (percentile 50 r.latency));
        ("latency_p95_ms", ms (percentile 95 r.latency));
        ("latency_p99_ms", ms (percentile 99 r.latency));
        ("setup_s", setup_s);
      ];
    detail =
      [
        ("offered_qps", Json.Float Config.served_rate_qps);
        ("queries", Json.Int (Array.length r.reports));
        ("cache_hits", Json.Int hits);
        ("shed", Json.Int (count r (outcome Jp_service.Shed)));
        ("expired", Json.Int (count r (outcome Jp_service.Expired_in_queue)));
        ("late_ms_p99", Json.Float (ms (percentile 99 r.late)));
      ];
  }

let phase_ms name =
  List.fold_left
    (fun acc (record : Jp_obs.plan_actual) ->
      List.fold_left (fun acc (n, sec) -> if n = name then acc +. sec else acc) acc record.phases)
    0. (Jp_obs.plan_records ())
  *. 1e3

(* Traced run: a half-length untraced stream for the reference
   capacity, then a traced stream on a fresh service and cache. *)
let trace st ~expected ~seed ~seconds =
  let plain =
    serve st ~expected ~seed ~count:(int_of_float (Float.ceil (Config.served_rate_qps *. seconds /. 2.)))
  in
  let st = { st with cache = fresh_cache (); svc = Jp_service.create service_config } in
  Jp_obs.reset ();
  Jp_obs.enable ();
  let r = Fun.protect ~finally:Jp_obs.disable (fun () -> serve st ~expected ~seed ~count:(count_for seconds)) in
  let n = float_of_int (Array.length r.reports) in
  let executed = List.filter (fun (rep : int Jp_service.report) -> rep.attempts > 0) (Array.to_list r.reports) in
  let queued = Array.of_list (List.map (fun (rep : int Jp_service.report) -> rep.queued_s) executed) in
  let ran = Array.of_list (List.map (fun (rep : int Jp_service.report) -> rep.ran_s) executed) in
  let count f = float_of_int (count r f) in
  let counter name = float_of_int (obs_counter name) in
  let hits = counter "dedup.stamp_hits" and misses = counter "dedup.stamp_misses" in
  let metrics =
    [
      ("service.queued_ms_p50", ms (percentile 50 queued));
      ("service.queued_ms_p99", ms (percentile 99 queued));
      ("service.ran_ms_p50", ms (percentile 50 ran));
      ( "service.attempts_per_query",
        float_of_int (List.fold_left (fun k (rep : int Jp_service.report) -> k + rep.attempts) 0 executed) /. n );
      ("overload.shed", count (outcome Jp_service.Shed));
      ("overload.expired", count (outcome Jp_service.Expired_in_queue));
      ("cache.hit_ratio", count (fun (rep : int Jp_service.report) -> rep.cache_hit) /. n);
      ("cache.evictions", float_of_int (Jp_cache.stats st.cache).evictions);
      ("arrivals.late_ms_p99", ms (percentile 99 r.late));
      ( "tracing.overhead_pct",
        100. *. ((plain.capacity /. r.capacity) -. 1.) );
      ("light_merge.ms", phase_ms "light-merge" /. n);
      ("count_mm.ms", phase_ms "heavy-count-mm" /. n);
      ("count_merge.ms", phase_ms "count-merge" /. n);
      ("heavy_mm.word_ops", counter "mm.bool_word_ops" /. n);
      ("count_mm.word_ops", counter "mm.count_word_ops" /. n);
      ("light_merge.probes", counter "light.probes" /. n);
      ("light_merge.dup_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
      ("finalize.radix_bytes", counter "sort.radix_bytes" /. n);
    ]
  in
  Jp_obs.reset ();
  {
    Report.attempted = Array.length plain.reports + Array.length r.reports;
    failed = plain.failed + r.failed;
    wrong = plain.wrong + r.wrong;
    metrics;
    detail = [ ("offered_qps", Json.Float Config.served_rate_qps) ];
  }
