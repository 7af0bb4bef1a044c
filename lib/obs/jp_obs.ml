module Json = Json
module Hist = Hist
module Hook = Jp_util.Obs_hook
module Timer = Jp_util.Timer
module Tablefmt = Jp_util.Tablefmt

(* ------------------------------------------------------------------ *)
(* global switch                                                       *)

(* Atomic rather than a bare ref: worker domains read the switch on
   their hot paths while the coordinator may toggle it. *)
let on = Atomic.make false

let recording () = Atomic.get on

let enable () =
  Atomic.set on true;
  Atomic.set Hook.enabled true

let disable () =
  Atomic.set on false;
  Atomic.set Hook.enabled false

(* ------------------------------------------------------------------ *)
(* instruments                                                         *)

(* One registry, one lock, one namespace.  A counter and a gauge are the
   same cell — a name and an atomic int — told apart by their kind;
   histograms and gauge snapshots live behind the same lock.  Every
   update is dropped while recording is off. *)

type kind = Counter | Gauge

type cell = { name : string; kind : kind; v : int Atomic.t }

type 'k instrument = cell

type counter = [ `Counter ] instrument

type gauge = [ `Gauge ] instrument

type histogram = { hname : string; hist : Hist.t }

type snap = { ts : float; snap_seq : int; values : (string * int) list }

let lock = Mutex.create ()

let cells : cell list ref =
  ref [] [@@jp.domain_safe "every access is guarded by lock"]

let histograms : histogram list ref =
  ref [] [@@jp.domain_safe "every access is guarded by lock"]

let snaps : snap list ref =
  ref [] [@@jp.domain_safe "every access is guarded by lock"]

let snap_seq = ref 0 [@@jp.domain_safe "every access is guarded by lock"]

(* Assumes the lock is held: a new instrument's name must be free. *)
let claim name =
  if
    List.exists (fun c -> c.name = name) !cells
    || List.exists (fun h -> h.hname = name) !histograms
  then invalid_arg ("Jp_obs: instrument name registered twice: " ^ name)

let cell kind name =
  Mutex.protect lock (fun () ->
      match List.find_opt (fun c -> c.name = name && c.kind = kind) !cells with
      | Some c -> c
      | None ->
        claim name;
        let c = { name; kind; v = Atomic.make 0 } in
        cells := c :: !cells;
        c)

let counter name = cell Counter name

let gauge name = cell Gauge name

let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.v n)

let incr c = add c 1

let set g n = if Atomic.get on then Atomic.set g.v n

let value c = Atomic.get c.v

(* Assumes the lock is held. *)
let values_of kind =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.filter_map
       (fun c -> if c.kind = kind then Some (c.name, Atomic.get c.v) else None)
       !cells)

let counter_values () =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (("sort.radix_bytes", Atomic.get Hook.radix_bytes)
    :: Mutex.protect lock (fun () -> values_of Counter))

let render_counters () =
  let rows =
    List.filter_map
      (fun (name, v) -> if v = 0 then None else Some [ name; Tablefmt.big_int v ])
      (counter_values ())
  in
  match rows with
  | [] -> "(all counters zero)\n"
  | rows -> Tablefmt.render ~header:[ "counter"; "value" ] ~rows

let histogram name =
  Mutex.protect lock (fun () ->
      match List.find_opt (fun h -> h.hname = name) !histograms with
      | Some h -> h
      | None ->
        claim name;
        let h = { hname = name; hist = Hist.create () } in
        histograms := h :: !histograms;
        h)

let observe h x =
  if Atomic.get on then Mutex.protect lock (fun () -> Hist.observe h.hist x)

let histogram_value h = Mutex.protect lock (fun () -> Hist.copy h.hist)

let snapshot ?now () =
  if Atomic.get on then begin
    let ts = match now with Some t -> t | None -> Timer.now () in
    Mutex.protect lock (fun () ->
        snaps := { ts; snap_seq = !snap_seq; values = values_of Gauge } :: !snaps;
        Stdlib.incr snap_seq)
  end

let snapshots () =
  let ss = Mutex.protect lock (fun () -> !snaps) in
  List.map
    (fun s -> (s.ts, s.values))
    (List.sort
       (fun a b ->
         match Float.compare a.ts b.ts with
         | 0 -> Int.compare a.snap_seq b.snap_seq
         | n -> n)
       ss)

module C = struct
  let mm_bool_word_ops = counter "mm.bool_word_ops"

  let mm_count_word_ops = counter "mm.count_word_ops"

  let ssj_triangles = counter "ssj.triangle_products"

  let ssj_planes = counter "ssj.plane_products"

  let stamp_hits = counter "dedup.stamp_hits"

  let stamp_misses = counter "dedup.stamp_misses"

  let light_probes = counter "light.probes"

  let pool_tasks = counter "pool.tasks"

  let pool_spawns = counter "pool.domain_spawns"

  (* Query-service lifecycle (Jp_service): every submission ends up in
     exactly one of accepted/rejected, and every accepted query in exactly
     one of completed/failed/deadline/cancelled — the balance the service
     tests enforce. *)
  let service_submitted = counter "service.submitted"

  let service_accepted = counter "service.accepted"

  let service_rejected = counter "service.rejected_overload"

  let service_completed = counter "service.completed"

  let service_failed = counter "service.failed"

  let service_deadline = counter "service.deadline_exceeded"

  let service_cancelled = counter "service.cancelled"

  let service_retries = counter "service.retries"

  let service_degraded = counter "service.degraded"

  let service_workers_spawned = counter "service.workers_spawned"

  let service_workers_joined = counter "service.workers_joined"

  (* Overload controller (Jp_service.Overload): shed splits off from
     rejected (queue full) at admission, expired_in_queue from deadline
     (queries killed at dequeue, zero attempts); brownout transitions and
     the queries served degraded under it are counted separately so the
     ladder is auditable from the exposition alone. *)
  let service_shed = counter "service.shed"

  let service_expired = counter "service.expired_in_queue"

  let service_brownout_entered = counter "service.brownout_entered"

  let service_brownout_exited = counter "service.brownout_exited"

  let service_brownout_served = counter "service.brownout_served"

  (* Chaos injection (Jp_chaos), one bump per fault actually delivered. *)
  let chaos_transients = counter "chaos.transients"

  let chaos_worker_kills = counter "chaos.worker_kills"

  let chaos_slowdowns = counter "chaos.slowdowns"

  (* Semantic cache (Jp_cache).  hit/miss count lookups, evict/reject
     count entries pushed out by the LANDLORD budget or refused by the
     cost-based admission test, invalidate counts entries dropped by view
     updates.  The resident footprint is the G.cache_bytes gauge. *)
  let cache_hits = counter "cache.hit"

  let cache_misses = counter "cache.miss"

  let cache_evictions = counter "cache.evict"

  let cache_rejects = counter "cache.reject"

  let cache_invalidations = counter "cache.invalidate"

  (* Tiled heavy-part product (Jp_matrix.Tile).  build/store_hit/evict
     count operand-tile traffic through the bounded resident store, product
     counts output tiles computed.  The store's resident footprint is the
     G.tile_bytes gauge; tile.peak_bytes is the monotone high-water mark
     of that footprint (bumped by the increase only, so bench-cell deltas
     report the peak growth). *)
  let tile_builds = counter "tile.build"

  let tile_store_hits = counter "tile.store_hit"

  let tile_evictions = counter "tile.evict"

  let tile_products = counter "tile.product"

  let tile_peak_bytes = counter "tile.peak_bytes"
end

module G = struct
  let queue_depth = gauge "service.queue_depth"

  let inflight = gauge "service.inflight"

  let cache_bytes = gauge "cache.resident_bytes"

  let tile_bytes = gauge "tile.resident_bytes"

  let brownout = gauge "service.brownout"

  let est_wait_us = gauge "service.est_wait_us"
end

module H = struct
  let service_queued_seconds = histogram "service.queued_seconds"

  let service_ran_seconds = histogram "service.ran_seconds"
end

(* ------------------------------------------------------------------ *)
(* spans                                                               *)

type event = {
  tid : int;
  seq : int; (* recording order, breaks timestamp ties deterministically *)
  path : string list; (* innermost first *)
  t0 : float;
  t1 : float;
  args : (string * Json.t) list; (* trace correlation payload *)
  inst : bool; (* instant marker rather than an interval *)
}

let events_lock = Mutex.create ()

let events : event list ref =
  ref [] [@@jp.domain_safe "every access is guarded by events_lock"]

let event_seq =
  ref 0 [@@jp.domain_safe "every access is guarded by events_lock"]

(* Each domain keeps its own stack of open span names, so worker-domain
   spans nest under their own roots instead of racing on a global. *)
let stack_key : string list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let timed_span ?(args = []) name f =
  if not (Atomic.get on) then (f (), 0.0)
  else begin
    let stack = Domain.DLS.get stack_key in
    let path = name :: !stack in
    stack := path;
    let t0 = Timer.now () in
    let finish () =
      let t1 = Timer.now () in
      stack := (match !stack with _ :: tl -> tl | [] -> []);
      Mutex.lock events_lock;
      let seq = !event_seq in
      Stdlib.incr event_seq;
      events :=
        { tid = (Domain.self () :> int); seq; path; t0; t1; args; inst = false }
        :: !events;
      Mutex.unlock events_lock;
      t1 -. t0
    in
    match f () with
    | x ->
      let dt = finish () in
      (x, dt)
    | exception e ->
      ignore (finish ());
      raise e
  end

let span ?args name f = fst (timed_span ?args name f)

let instant ?(args = []) name =
  if Atomic.get on then begin
    let stack = Domain.DLS.get stack_key in
    let t = Timer.now () in
    Mutex.lock events_lock;
    let seq = !event_seq in
    Stdlib.incr event_seq;
    events :=
      {
        tid = (Domain.self () :> int);
        seq;
        path = name :: !stack;
        t0 = t;
        t1 = t;
        args;
        inst = true;
      }
      :: !events;
    Mutex.unlock events_lock
  end

let span_events () =
  Mutex.lock events_lock;
  let evs = !events in
  Mutex.unlock events_lock;
  List.sort
    (fun a b ->
      match Float.compare a.t0 b.t0 with
      | 0 -> (
        match Float.compare a.t1 b.t1 with 0 -> Int.compare a.seq b.seq | n -> n)
      | n -> n)
    evs

(* Aggregated view: events sharing a call path collapse into one node
   (summed time, call count); children keep first-call order. *)
type span_node = {
  name : string;
  calls : int;
  seconds : float;
  children : span_node list;
}

type mutable_node = {
  mutable m_calls : int;
  mutable m_seconds : float;
  mutable m_children : (string * mutable_node) list; (* reversed *)
}

let span_tree () =
  let root = { m_calls = 0; m_seconds = 0.0; m_children = [] } in
  let node_for parent name =
    match List.assoc_opt name parent.m_children with
    | Some n -> n
    | None ->
      let n = { m_calls = 0; m_seconds = 0.0; m_children = [] } in
      parent.m_children <- (name, n) :: parent.m_children;
      n
  in
  List.iter
    (fun ev ->
      let node =
        List.fold_left (fun parent name -> node_for parent name) root
          (List.rev ev.path)
      in
      node.m_calls <- node.m_calls + 1;
      node.m_seconds <- node.m_seconds +. (ev.t1 -. ev.t0))
    (span_events ());
  let rec freeze m =
    List.rev_map
      (fun (name, n) ->
        { name; calls = n.m_calls; seconds = n.m_seconds; children = freeze n })
      m.m_children
  in
  freeze root

let render_spans () =
  let rows = ref [] in
  let rec walk depth node =
    let child_total =
      List.fold_left (fun acc c -> acc +. c.seconds) 0.0 node.children
    in
    let self = Float.max 0.0 (node.seconds -. child_total) in
    rows :=
      [
        String.make (2 * depth) ' ' ^ node.name;
        string_of_int node.calls;
        Tablefmt.seconds node.seconds;
        Tablefmt.seconds self;
      ]
      :: !rows;
    List.iter (walk (depth + 1)) node.children
  in
  let tree = span_tree () in
  List.iter (walk 0) tree;
  match tree with
  | [] -> "(no spans recorded)\n"
  | _ ->
    Tablefmt.render
      ~header:[ "span"; "calls"; "total"; "self" ]
      ~rows:(List.rev !rows)

(* Span events ("X"/"i") on their recording domains' lanes, then one
   counter ("C") event per gauge per snapshot on lane 0. *)
let chrome_trace () =
  let evs = span_events () in
  let base = match evs with [] -> 0.0 | ev :: _ -> ev.t0 in
  let trace_events =
    List.map
      (fun ev ->
        let shape =
          if ev.inst then
            [ ("ph", Json.String "i"); ("s", Json.String "t") ]
          else
            [
              ("ph", Json.String "X");
              ("dur", Json.Float ((ev.t1 -. ev.t0) *. 1e6));
            ]
        in
        Json.Obj
          ([
             ("name", Json.String (List.hd ev.path));
             ("cat", Json.String "joinproj");
           ]
          @ shape
          @ [
              ("ts", Json.Float ((ev.t0 -. base) *. 1e6));
              ("pid", Json.Int 1);
              ("tid", Json.Int ev.tid);
            ]
          @ (match ev.args with [] -> [] | args -> [ ("args", Json.Obj args) ])))
      evs
  in
  let gauge_events (ts, values) =
    List.map
      (fun (name, v) ->
        Json.Obj
          [
            ("name", Json.String name);
            ("cat", Json.String "metrics");
            ("ph", Json.String "C");
            ("ts", Json.Float ((ts -. base) *. 1e6));
            ("pid", Json.Int 1);
            ("tid", Json.Int 0);
            ("args", Json.Obj [ ("value", Json.Int v) ]);
          ])
      values
  in
  let counter_args =
    List.filter_map
      (fun (name, v) -> if v = 0 then None else Some (name, Json.Int v))
      (counter_values ())
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (trace_events @ List.concat_map gauge_events (snapshots ())) );
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj [ ("counters", Json.Obj counter_args) ]);
    ]

(* ------------------------------------------------------------------ *)
(* OpenMetrics text exposition                                         *)

(* Prometheus metric names admit [a-zA-Z0-9_:]; our dotted obs names map
   dots (and anything else) to underscores under a "jp_" prefix. *)
let metric_name name =
  "jp_"
  ^ String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name

(* Deterministic shortest-ish float rendering shared by bucket bounds and
   sums; OpenMetrics allows any decimal or scientific literal. *)
let float_str v = Printf.sprintf "%.9g" v

let exposition () =
  let b = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  List.iter
    (fun (name, v) ->
      let n = metric_name name in
      line "# TYPE %s counter" n;
      line "%s_total %d" n v)
    (counter_values ());
  let gauges, hists =
    Mutex.protect lock (fun () ->
        ( values_of Gauge,
          List.map (fun h -> (h.hname, Hist.copy h.hist)) !histograms ))
  in
  List.iter
    (fun (name, v) ->
      let n = metric_name name in
      line "# TYPE %s gauge" n;
      line "%s %d" n v)
    gauges;
  List.iter
    (fun (name, h) ->
      let n = metric_name name in
      line "# TYPE %s histogram" n;
      let cum = ref 0 in
      List.iter
        (fun (le, c) ->
          cum := !cum + c;
          let le_s = if le = Float.infinity then "+Inf" else float_str le in
          line "%s_bucket{le=\"%s\"} %d" n le_s !cum)
        (Hist.buckets h);
      line "%s_sum %s" n (float_str (Hist.sum h));
      line "%s_count %d" n (Hist.count h))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) hists);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* plan vs actual                                                      *)

type plan_actual = {
  label : string;
  decision : string;
  est_out : int;
  join_size : int;
  est_seconds : float;
  actual_out : int;
  actual_seconds : float;
  replanned : bool;
  degraded : bool;
  phases : (string * float) list;
}

let plans_lock = Mutex.create ()

let plans : plan_actual list ref =
  ref [] [@@jp.domain_safe "every access is guarded by plans_lock"]

let record_plan ?(replanned = false) ?(degraded = false) ~label ~decision
    ~est_out ~join_size ~est_seconds ~actual_out ~actual_seconds ~phases () =
  if Atomic.get on then begin
    let p =
      {
        label;
        decision;
        est_out;
        join_size;
        est_seconds;
        actual_out;
        actual_seconds;
        replanned;
        degraded;
        phases;
      }
    in
    Mutex.lock plans_lock;
    plans := p :: !plans;
    Mutex.unlock plans_lock
  end

let plan_records () =
  Mutex.lock plans_lock;
  let ps = List.rev !plans in
  Mutex.unlock plans_lock;
  ps

let ratio actual est =
  if Float.is_nan est || est <= 0.0 then "-"
  else Printf.sprintf "x%.2f" (actual /. est)

let opt_int n = if n < 0 then "-" else Tablefmt.big_int n

let opt_seconds s = if Float.is_nan s || s < 0.0 then "-" else Tablefmt.seconds s

let adapt_string ~replanned ~degraded =
  match (replanned, degraded) with
  | false, false -> "-"
  | true, false -> "replan"
  | false, true -> "degrade"
  | true, true -> "replan+degrade"

let render_plans () =
  match plan_records () with
  | [] -> "(no plans recorded)\n"
  | records ->
    let rows =
      List.map
        (fun p ->
          let phases =
            String.concat "; "
              (List.map
                 (fun (name, dt) ->
                   Printf.sprintf "%s %s" name (Tablefmt.seconds dt))
                 p.phases)
          in
          [
            p.label;
            p.decision;
            opt_int p.est_out;
            opt_int p.actual_out;
            ratio (float_of_int p.actual_out) (float_of_int p.est_out);
            opt_seconds p.est_seconds;
            opt_seconds p.actual_seconds;
            ratio p.actual_seconds p.est_seconds;
            adapt_string ~replanned:p.replanned ~degraded:p.degraded;
            phases;
          ])
        records
    in
    Tablefmt.render
      ~header:
        [
          "label";
          "plan";
          "est_out";
          "|OUT|";
          "out err";
          "est";
          "actual";
          "t err";
          "adapt";
          "phases";
        ]
      ~rows

(* ------------------------------------------------------------------ *)
(* reset                                                               *)

let reset () =
  Mutex.protect lock (fun () ->
      List.iter (fun c -> Atomic.set c.v 0) !cells;
      List.iter (fun h -> Hist.clear h.hist) !histograms;
      snaps := [];
      snap_seq := 0);
  Hook.reset ();
  Mutex.lock events_lock;
  events := [];
  event_seq := 0;
  Mutex.unlock events_lock;
  Mutex.lock plans_lock;
  plans := [];
  Mutex.unlock plans_lock
