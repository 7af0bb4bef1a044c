module Pool = Jp_parallel.Pool
module Cancel = Jp_util.Cancel

let test_parallel_for_covers () =
  let n = 1000 in
  let hits = Array.make n 0 in
  Pool.parallel_for ~domains:4 ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_parallel_for_sequential_degenerate () =
  let n = 100 in
  let hits = Array.make n 0 in
  Pool.parallel_for ~domains:1 ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "domains=1 covers" true (Array.for_all (fun h -> h = 1) hits)

let test_parallel_for_empty () =
  let called = ref false in
  Pool.parallel_for ~domains:4 ~lo:5 ~hi:5 (fun _ -> called := true);
  Alcotest.(check bool) "empty range" false !called

let test_ranges_partition () =
  let n = 777 in
  let hits = Array.make n 0 in
  Pool.parallel_for_ranges ~domains:3 ~chunk:50 ~lo:0 ~hi:n (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check bool) "ranges cover exactly" true (Array.for_all (fun h -> h = 1) hits)

exception Boom

let test_exception_propagates () =
  Alcotest.check_raises "worker exception reraised" Boom (fun () ->
      Pool.parallel_for ~domains:3 ~lo:0 ~hi:100 (fun i ->
          if i = 37 then raise Boom))

let test_available_cores () =
  Alcotest.(check bool) "at least one core" true (Pool.available_cores () >= 1)

exception Boom_a
exception Boom_b

(* A raise in one chunk must stop the other workers claiming new chunks:
   the body at index 0 fails immediately, so only the handful of chunks
   claimed in the raise-to-stop-flag window may still run. *)
let test_stop_flag_prompt () =
  let n = 100_000 in
  let processed = Atomic.make 0 in
  (try
     Pool.parallel_for ~domains:2 ~chunk:1 ~lo:0 ~hi:n (fun i ->
         if i = 0 then raise Boom
         else ignore (Atomic.fetch_and_add processed 1))
   with Boom -> ());
  let p = Atomic.get processed in
  Alcotest.(check bool)
    (Printf.sprintf "stop flag halts chunk claims early (processed %d)" p)
    true (p < n / 2)

(* Two bodies raise; the chunk counter hands indices out in order, so the
   lower-indexed exception is recorded (and re-raised) deterministically
   even though the domains race. *)
let test_failure_lowest_index_wins () =
  Alcotest.check_raises "lowest-index exception re-raised" Boom_a (fun () ->
      Pool.parallel_for ~domains:2 ~chunk:1 ~lo:0 ~hi:1_000 (fun i ->
          if i = 10 then raise Boom_a;
          if i = 20 then raise Boom_b))

let test_cancel_precancelled () =
  let c = Cancel.create () in
  Cancel.cancel c;
  let ran = ref false in
  Alcotest.check_raises "pre-cancelled token raises"
    (Cancel.Cancelled Cancel.Requested) (fun () ->
      Pool.parallel_for ~domains:1 ~chunk:8 ~cancel:c ~lo:0 ~hi:100 (fun _ ->
          ran := true));
  Alcotest.(check bool) "body never ran" false !ran

let test_cancel_precancelled_parallel () =
  let c = Cancel.create () in
  Cancel.cancel c;
  let ran = ref false in
  Alcotest.check_raises "pre-cancelled token raises (parallel)"
    (Cancel.Cancelled Cancel.Requested) (fun () ->
      Pool.parallel_for ~domains:2 ~chunk:8 ~cancel:c ~lo:0 ~hi:100 (fun _ ->
          ran := true));
  Alcotest.(check bool) "body never ran" false !ran

(* Cancellation is chunk-granular: the chunk in flight finishes, the next
   claim observes the token.  With chunk=10 exactly one chunk runs. *)
let test_cancel_mid_run_seq () =
  let c = Cancel.create () in
  let count = ref 0 in
  Alcotest.check_raises "mid-run cancel raises"
    (Cancel.Cancelled Cancel.Requested) (fun () ->
      Pool.parallel_for ~domains:1 ~chunk:10 ~cancel:c ~lo:0 ~hi:10_000 (fun i ->
          incr count;
          if i = 5 then Cancel.cancel c));
  Alcotest.(check int) "exactly the in-flight chunk ran" 10 !count

let test_fault_hook_per_chunk () =
  let fired = ref 0 in
  Pool.set_fault_hook (Some (fun () -> incr fired));
  Fun.protect
    ~finally:(fun () -> Pool.set_fault_hook None)
    (fun () ->
      let c = Cancel.create () in
      Pool.parallel_for ~domains:1 ~chunk:50 ~cancel:c ~lo:0 ~hi:100 (fun _ -> ()));
  Alcotest.(check int) "hook consulted once per chunk" 2 !fired

let suite =
  [
    Alcotest.test_case "parallel_for covers" `Quick test_parallel_for_covers;
    Alcotest.test_case "parallel_for domains=1" `Quick test_parallel_for_sequential_degenerate;
    Alcotest.test_case "parallel_for empty" `Quick test_parallel_for_empty;
    Alcotest.test_case "ranges partition" `Quick test_ranges_partition;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "available cores" `Quick test_available_cores;
    Alcotest.test_case "stop flag prompt" `Quick test_stop_flag_prompt;
    Alcotest.test_case "lowest-index failure wins" `Quick
      test_failure_lowest_index_wins;
    Alcotest.test_case "pre-cancelled (seq)" `Quick test_cancel_precancelled;
    Alcotest.test_case "pre-cancelled (parallel)" `Quick
      test_cancel_precancelled_parallel;
    Alcotest.test_case "mid-run cancel chunk granular" `Quick
      test_cancel_mid_run_seq;
    Alcotest.test_case "fault hook per chunk" `Quick test_fault_hook_per_chunk;
  ]
