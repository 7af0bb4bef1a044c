module Cancel = Jp_util.Cancel
module Pool = Jp_parallel.Pool
module Timer = Jp_util.Timer
module C = Jp_obs.C
module Json = Jp_obs.Json
module Overload = Overload

type error =
  | Overloaded
  | Shed
  | Expired_in_queue
  | Deadline_exceeded
  | Cancelled
  | Failed of string

let error_to_string = function
  | Overloaded -> "overloaded"
  | Shed -> "shed"
  | Expired_in_queue -> "expired-in-queue"
  | Deadline_exceeded -> "deadline"
  | Cancelled -> "cancelled"
  | Failed msg -> "failed: " ^ msg

type config = {
  workers : int;
  queue_capacity : int;
  max_retries : int;
  backoff_s : float;
  default_deadline_s : float option;
  chaos : Jp_chaos.config option;
  controller : Overload.config option;
}

let default =
  {
    workers = 1;
    queue_capacity = 16;
    max_retries = 2;
    backoff_s = 0.005;
    default_deadline_s = None;
    chaos = None;
    controller = None;
  }

type 'a report = {
  outcome : ('a, error) result;
  attempts : int;
  retries : int;
  degraded : bool;
  cache_hit : bool;
  queued_s : float;
  ran_s : float;
  trace_id : int;
}

type 'a ticket = {
  tlock : Mutex.t;
  tcond : Condition.t;
  mutable result : 'a report option;
  tcancel : Cancel.t;
}

let resolve tk rep =
  Mutex.lock tk.tlock;
  (match tk.result with None -> tk.result <- Some rep | Some _ -> ());
  Condition.broadcast tk.tcond;
  Mutex.unlock tk.tlock

let await tk =
  Mutex.lock tk.tlock;
  while tk.result = None do
    Condition.wait tk.tcond tk.tlock
  done;
  let rep = match tk.result with Some r -> r | None -> assert false in
  Mutex.unlock tk.tlock;
  rep

let cancel tk = Cancel.cancel tk.tcancel

(* A queued job erases the ticket's result type: [exec] runs the query
   on a worker domain, [abort] resolves the ticket as cancelled when the
   service shuts down before the job was picked up, and [expire] fails it
   fast when the overload controller sees its deadline already passed at
   dequeue (zero engine attempts).  Exactly one of the three ever runs. *)
type job = {
  exec : unit -> unit;
  abort : unit -> unit;
  expire : unit -> unit;
  expires_at : float option; (* absolute deadline, for the dequeue check *)
}

type t = {
  cfg : config;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  next_trace : int Atomic.t; (* per-service trace ids, in submission order *)
  ctl : Overload.t option;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let worker_loop t =
  let continue = ref true in
  while !continue do
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.nonempty t.lock
    done;
    if t.stopping then begin
      Mutex.unlock t.lock;
      continue := false
    end
    else begin
      let job = Queue.pop t.queue in
      let depth = Queue.length t.queue in
      Mutex.unlock t.lock;
      Jp_obs.set Jp_obs.G.queue_depth depth;
      Jp_obs.add Jp_obs.G.inflight 1;
      (* Dequeue-time expiry is a controller behaviour: without one the
         query still reaches run_query, whose entry checkpoint reports
         Deadline_exceeded exactly as before. *)
      (match (t.ctl, job.expires_at) with
      | Some _, Some e when Timer.now () > e -> job.expire ()
      | _ -> job.exec ());
      Jp_obs.add Jp_obs.G.inflight (-1)
    end
  done

let create cfg =
  if cfg.queue_capacity < 0 then invalid_arg "Jp_service.create: negative queue";
  if cfg.max_retries < 0 then invalid_arg "Jp_service.create: negative retries";
  let workers = max 1 (min cfg.workers (Pool.available_cores ())) in
  let t =
    {
      cfg = { cfg with workers };
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      next_trace = Atomic.make 0;
      ctl = Option.map Overload.create cfg.controller;
      stopping = false;
      domains = [];
    }
  in
  Jp_obs.add C.service_workers_spawned workers;
  t.domains <- List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let outcome_string = function
  | Ok _ -> "ok"
  | Error Overloaded -> "overloaded"
  | Error Shed -> "shed"
  | Error Expired_in_queue -> "expired"
  | Error Deadline_exceeded -> "deadline"
  | Error Cancelled -> "cancelled"
  | Error (Failed _) -> "failed"

(* One query execution on a worker domain: attempt loop with exponential
   backoff on injected transients, then a final degraded attempt.  Every
   exception is mapped to a typed error — nothing escapes to the worker
   loop. *)
let run_query t ~key ~trace_id ~cancel ~submitted_at ~cached ~brownout ~work tk =
  let started = Timer.now () in
  let attempts = ref 0 in
  let retries = ref 0 in
  (* Under brownout every attempt runs degraded — the safe combinatorial
     plan, same ladder as the post-retry degradation below — and the
     publish gate further down then keeps the result out of the cache. *)
  let degraded = ref brownout in
  if brownout then Jp_obs.incr C.service_brownout_served;
  let run_attempt ~degraded:d =
    let attempt = !attempts in
    incr attempts;
    Jp_obs.span "service.attempt"
      ~args:
        [
          ("trace_id", Json.Int trace_id);
          ("attempt", Json.Int attempt);
          ("degraded", Json.Bool d);
        ]
      (fun () ->
        match t.cfg.chaos with
        | None -> work ~cancel ~attempt ~degraded:d
        | Some ccfg ->
          Jp_chaos.with_attempt ccfg ~query:key ~attempt ~degraded:d ~cancel
            ~pool:(t.cfg.workers = 1) (fun () ->
              work ~cancel ~attempt ~degraded:d))
  in
  let outcome =
    try
      (* The deadline keeps ticking while queued: a query that waited too
         long dies here without burning a single engine cycle. *)
      Cancel.check cancel;
      let rec go n =
        match run_attempt ~degraded:brownout with
        | v -> Ok v
        | exception Jp_chaos.Injected _ when n < t.cfg.max_retries ->
          incr retries;
          Jp_obs.incr C.service_retries;
          Unix.sleepf (t.cfg.backoff_s *. (2.0 ** float_of_int n));
          go (n + 1)
        | exception Jp_chaos.Injected f when brownout ->
          (* Already on the safe path: there is no further rung. *)
          incr retries;
          Jp_obs.incr C.service_retries;
          Error (Failed ("persistent fault: " ^ Jp_chaos.fault_to_string f))
        | exception Jp_chaos.Injected _ -> begin
          incr retries;
          Jp_obs.incr C.service_retries;
          degraded := true;
          Jp_obs.incr C.service_degraded;
          match run_attempt ~degraded:true with
          | v -> Ok v
          | exception Jp_chaos.Injected f ->
            Error (Failed ("persistent fault: " ^ Jp_chaos.fault_to_string f))
        end
      in
      go 0
    with
    | Cancel.Cancelled Cancel.Deadline -> Error Deadline_exceeded
    | Cancel.Cancelled Cancel.Requested -> Error Cancelled
    | e -> Error (Failed (Printexc.to_string e))
  in
  (match outcome with
  | Ok _ -> Jp_obs.incr C.service_completed
  | Error Deadline_exceeded -> Jp_obs.incr C.service_deadline
  | Error Cancelled -> Jp_obs.incr C.service_cancelled
  | Error (Failed _) -> Jp_obs.incr C.service_failed
  | Error (Overloaded | Shed | Expired_in_queue) -> ());
  (* Publish-after-verify, and only a clean success: a cancelled, faulted
     or degraded attempt never reaches the cache.  [binding_publish] runs
     the binding's verifier before the entry becomes resident. *)
  (match (outcome, cached) with
  | Ok v, Some b when not !degraded ->
    ignore (Jp_cache.binding_publish b ~cost_s:(Timer.now () -. started) v)
  | _ -> ());
  let queued_s = started -. submitted_at in
  let ran_s = Timer.now () -. started in
  (* Aggregate once per query (chunk granularity): two histogram
     observations, one outcome marker, one gauge snapshot. *)
  Jp_obs.observe Jp_obs.H.service_queued_seconds queued_s;
  Jp_obs.observe Jp_obs.H.service_ran_seconds ran_s;
  (* Feed the overload estimator whatever the outcome: a deadline kill is
     as much evidence about service times as a success. *)
  (match t.ctl with
  | Some c -> Overload.note_executed c ~queued_s ~ran_s
  | None -> ());
  Jp_obs.instant "service.outcome"
    ~args:
      [
        ("trace_id", Json.Int trace_id);
        ("outcome", Json.String (outcome_string outcome));
        ("attempts", Json.Int !attempts);
        ("retries", Json.Int !retries);
        ("degraded", Json.Bool !degraded);
      ];
  Jp_obs.snapshot ();
  resolve tk
    {
      outcome;
      attempts = !attempts;
      retries = !retries;
      degraded = !degraded;
      cache_hit = false;
      queued_s;
      ran_s;
      trace_id;
    }

let base_report =
  { outcome = Error Overloaded; attempts = 0; retries = 0; degraded = false;
    cache_hit = false; queued_s = 0.0; ran_s = 0.0; trace_id = 0 }

let rejected_report ~trace_id = { base_report with trace_id }

let shed_report ~trace_id = { base_report with outcome = Error Shed; trace_id }

let aborted_report ~trace_id =
  { base_report with outcome = Error Cancelled; trace_id }

let hit_report v ~trace_id =
  { base_report with outcome = Ok v; cache_hit = true; trace_id }

let submit t ?(key = 0) ?deadline_s ?cached work =
  Jp_obs.incr C.service_submitted;
  let trace_id = Atomic.fetch_and_add t.next_trace 1 in
  (* Consult the cache before dispatch: a hit resolves on the submitting
     thread — no queue slot, no worker, no attempt.  The hit still counts
     as accepted + completed, so the lifecycle balance the service tests
     enforce keeps holding. *)
  match Option.map (fun b -> Jp_cache.binding_find b) cached with
  | Some (Some v) ->
    Jp_obs.incr C.service_accepted;
    Jp_obs.incr C.service_completed;
    Jp_obs.instant "service.cache_hit" ~args:[ ("trace_id", Json.Int trace_id) ];
    { tlock = Mutex.create (); tcond = Condition.create ();
      result = Some (hit_report v ~trace_id); tcancel = Cancel.create () }
  | _ ->
  let deadline_s =
    match deadline_s with Some _ as d -> d | None -> t.cfg.default_deadline_s
  in
  let cancel = Cancel.create ?deadline_s () in
  let tk =
    { tlock = Mutex.create (); tcond = Condition.create (); result = None;
      tcancel = cancel }
  in
  let submitted_at = Timer.now () in
  (* The brownout flag is decided at admission (under t.lock, before the
     job becomes visible to workers) but lives in the closure's state. *)
  let brownout = ref false in
  let exec_impl () =
    Jp_obs.span "service.query" ~args:[ ("trace_id", Json.Int trace_id) ]
      (fun () ->
        run_query t ~key ~trace_id ~cancel ~submitted_at ~cached
          ~brownout:!brownout ~work tk)
  in
  let expire_impl () =
    (* A client cancellation that raced the expiry keeps its meaning: let
       run_query's entry checkpoint report Cancelled as usual. *)
    if Cancel.reason cancel = Some Cancel.Requested then exec_impl ()
    else begin
      let queued_s = Timer.now () -. submitted_at in
      Jp_obs.incr C.service_expired;
      Jp_obs.observe Jp_obs.H.service_queued_seconds queued_s;
      (match t.ctl with
      | Some c -> Overload.note_expired c ~queued_s
      | None -> ());
      Jp_obs.instant "service.expired"
        ~args:[ ("trace_id", Json.Int trace_id) ];
      resolve tk
        { base_report with outcome = Error Expired_in_queue; queued_s; trace_id }
    end
  in
  let job =
    {
      exec = exec_impl;
      abort = (fun () -> resolve tk (aborted_report ~trace_id));
      expire = expire_impl;
      expires_at = Option.map (fun d -> submitted_at +. d) deadline_s;
    }
  in
  Mutex.lock t.lock;
  (* One controller assessment per admission — never per tuple.  Nested
     ctl lock under t.lock is safe: workers take the ctl lock without
     holding t.lock, never the reverse order. *)
  let verdict =
    match t.ctl with
    | Some c ->
      Some
        (Overload.assess c ~queued:(Queue.length t.queue)
           ~workers:t.cfg.workers ~deadline_s)
    | None -> None
  in
  let shed = match verdict with Some v -> v.Overload.shed | None -> false in
  (match verdict with
  | Some v -> brownout := v.Overload.brownout
  | None -> ());
  let accepted =
    (not shed) && (not t.stopping)
    && Queue.length t.queue < t.cfg.queue_capacity
  in
  if accepted then begin
    Queue.push job t.queue;
    Condition.signal t.nonempty
  end;
  let depth = Queue.length t.queue in
  Mutex.unlock t.lock;
  Jp_obs.set Jp_obs.G.queue_depth depth;
  (match verdict with
  | Some v ->
    Jp_obs.set Jp_obs.G.est_wait_us
      (int_of_float (v.Overload.est_wait_s *. 1e6));
    if v.Overload.entered then begin
      Jp_obs.incr C.service_brownout_entered;
      Jp_obs.set Jp_obs.G.brownout 1;
      Jp_obs.instant "service.brownout" ~args:[ ("on", Json.Bool true) ]
    end;
    if v.Overload.exited then begin
      Jp_obs.incr C.service_brownout_exited;
      Jp_obs.set Jp_obs.G.brownout 0;
      Jp_obs.instant "service.brownout" ~args:[ ("on", Json.Bool false) ]
    end
  | None -> ());
  if shed then begin
    Jp_obs.incr C.service_shed;
    Jp_obs.instant "service.shed" ~args:[ ("trace_id", Json.Int trace_id) ];
    resolve tk (shed_report ~trace_id)
  end
  else if accepted then Jp_obs.incr C.service_accepted
  else begin
    Jp_obs.incr C.service_rejected;
    Jp_obs.instant "service.rejected" ~args:[ ("trace_id", Json.Int trace_id) ];
    resolve tk (rejected_report ~trace_id)
  end;
  tk

let shutdown t =
  Mutex.lock t.lock;
  let fresh = not t.stopping in
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  let leftover =
    if fresh then begin
      let jobs = List.of_seq (Queue.to_seq t.queue) in
      Queue.clear t.queue;
      jobs
    end
    else []
  in
  let domains = t.domains in
  if fresh then t.domains <- [];
  Mutex.unlock t.lock;
  if fresh then begin
    List.iter Domain.join domains;
    Jp_obs.add C.service_workers_joined (List.length domains);
    List.iter (fun j -> j.abort ()) leftover
  end
