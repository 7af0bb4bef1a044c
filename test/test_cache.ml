(* Jp_cache: the cross-query semantic cache.  The contract under test:
   a hit returns exactly what recomputation would return, admission and
   eviction are deterministic, invalidation by fingerprint drops every
   derived entry, and nothing a faulted / degraded / cancelled attempt
   produced ever becomes resident. *)

module Cache = Jp_cache
module Service = Jp_service
module Chaos = Jp_chaos
module Guard = Jp_adaptive.Guard
module Cancel = Jp_util.Cancel
module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Presets = Jp_workload.Presets
module View = Jp_dynamic.View

let small name = Presets.load ~scale:0.02 ~seed:7 name

let with_service cfg f =
  let svc = Service.create cfg in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

(* One module-level witness per value type, as the API requires. *)
let int_tag : int Cache.tag = Cache.tag "test.int"

let other_tag : int Cache.tag = Cache.tag "test.other"

(* ------------------------------------------------------------------ *)
(* the generic store                                                    *)
(* ------------------------------------------------------------------ *)

let test_put_find () =
  let c = Cache.create () in
  let k = Cache.Key.v ~kind:"t" ~fps:[ 42 ] ~params:[ 1 ] () in
  Alcotest.(check (option int)) "cold miss" None (Cache.find c int_tag k);
  Cache.put c int_tag k ~bytes:64 ~cost_s:0.01 7;
  Alcotest.(check (option int)) "hit" (Some 7) (Cache.find c int_tag k);
  (* same key string through a different witness must miss, not cast *)
  Alcotest.(check (option int)) "wrong tag" None (Cache.find c other_tag k);
  let st = Cache.stats c in
  Alcotest.(check int) "hits" 1 st.Cache.hits;
  Alcotest.(check int) "misses" 2 st.Cache.misses;
  Alcotest.(check int) "entries" 1 st.Cache.entries;
  Alcotest.(check int) "bytes" 64 st.Cache.bytes

let test_offer_admission () =
  let c = Cache.create () in
  let k = Cache.Key.v ~kind:"r" ~fps:[ 1 ] () in
  ignore (Cache.find c int_tag k);
  (* 10 Mb at the default 5 ms/Mb bar needs cost x misses >= 50 ms *)
  let mb10 = 10 * 1024 * 1024 in
  Alcotest.(check bool) "cheap big rejected" false
    (Cache.offer c int_tag k ~bytes:mb10 ~cost_s:0.001 1);
  Alcotest.(check (option int)) "not resident" None (Cache.find c int_tag k);
  Alcotest.(check bool) "expensive admitted" true
    (Cache.offer c int_tag k ~bytes:mb10 ~cost_s:1.0 1);
  Alcotest.(check (option int)) "resident" (Some 1) (Cache.find c int_tag k);
  Alcotest.(check bool) "rejection counted" true
    ((Cache.stats c).Cache.rejections >= 1);
  (* repeated misses lower the bar: the same cheap entry passes once the
     key has been asked for often enough *)
  let c2 = Cache.create () in
  let k2 = Cache.Key.v ~kind:"r" ~fps:[ 2 ] () in
  for _ = 1 to 100 do
    ignore (Cache.find c2 int_tag k2)
  done;
  Alcotest.(check bool) "popular cheap admitted" true
    (Cache.offer c2 int_tag k2 ~bytes:mb10 ~cost_s:0.001 2);
  (* an entry larger than the whole budget is rejected outright *)
  let tiny =
    Cache.create ~config:{ Cache.budget_bytes = 1024; admit_seconds_per_mb = 0.0 } ()
  in
  Alcotest.(check bool) "bigger than budget" false
    (Cache.offer tiny int_tag k ~bytes:4096 ~cost_s:10.0 3)

let test_landlord_eviction () =
  let config = { Cache.budget_bytes = 1024; admit_seconds_per_mb = 0.0 } in
  let run () =
    let c = Cache.create ~config () in
    let key i = Cache.Key.v ~kind:"e" ~fps:[ i ] () in
    Cache.put c int_tag (key 0) ~bytes:400 ~cost_s:0.001 0;
    Cache.put c int_tag (key 1) ~bytes:400 ~cost_s:0.001 1;
    Cache.put c int_tag (key 2) ~bytes:400 ~cost_s:0.001 2;
    let st = Cache.stats c in
    Alcotest.(check bool) "within budget" true (st.Cache.bytes <= 1024);
    Alcotest.(check bool) "evicted" true (st.Cache.evictions >= 1);
    (* equal credit and size: LANDLORD breaks the tie by insertion
       sequence, so the oldest entry goes and the newest survives *)
    Alcotest.(check (option int)) "oldest gone" None (Cache.find c int_tag (key 0));
    Alcotest.(check (option int)) "newest kept" (Some 2)
      (Cache.find c int_tag (key 2));
    st
  in
  (* same call sequence, same stats: eviction is deterministic even
     though Hashtbl iteration order is not *)
  Alcotest.(check bool) "deterministic" true (run () = run ())

let test_expensive_survives_squeeze () =
  let config = { Cache.budget_bytes = 1024; admit_seconds_per_mb = 0.0 } in
  let c = Cache.create ~config () in
  let key i = Cache.Key.v ~kind:"e" ~fps:[ i ] () in
  (* the expensive entry is inserted first, yet the cheap later ones are
     the ones evicted: credit is cost, not recency *)
  Cache.put c int_tag (key 0) ~bytes:400 ~cost_s:10.0 0;
  Cache.put c int_tag (key 1) ~bytes:400 ~cost_s:0.001 1;
  Cache.put c int_tag (key 2) ~bytes:400 ~cost_s:0.001 2;
  Cache.put c int_tag (key 3) ~bytes:400 ~cost_s:0.001 3;
  Alcotest.(check (option int)) "expensive kept" (Some 0)
    (Cache.find c int_tag (key 0))

let test_invalidate () =
  let c = Cache.create () in
  let ka = Cache.Key.v ~kind:"i" ~fps:[ 7; 8 ] () in
  let kb = Cache.Key.v ~kind:"i" ~fps:[ 9 ] () in
  Cache.put c int_tag ka ~bytes:64 ~cost_s:0.1 1;
  Cache.put c int_tag kb ~bytes:64 ~cost_s:0.1 2;
  Cache.invalidate c ~fp:8;
  Alcotest.(check (option int)) "fp 8 dropped" None (Cache.find c int_tag ka);
  Alcotest.(check (option int)) "other kept" (Some 2) (Cache.find c int_tag kb);
  Alcotest.(check int) "invalidations" 1 (Cache.stats c).Cache.invalidations;
  Cache.clear c;
  Alcotest.(check int) "cleared" 0 (Cache.stats c).Cache.entries

(* ------------------------------------------------------------------ *)
(* engine memoization and view-driven invalidation                      *)
(* ------------------------------------------------------------------ *)

let test_memo_and_view_invalidation () =
  let r = small Presets.Jokes in
  let c = Cache.create () in
  let reference = Pairs.count (Joinproj.Two_path.project ~r ~s:r ()) in
  let cached () =
    Pairs.count
      (Joinproj.Two_path.project ~memo:(Cache.two_path_memo c ~r ~s:r) ~r ~s:r ())
  in
  Alcotest.(check int) "cold equals uncached" reference (cached ());
  Alcotest.(check bool) "artifacts resident" true
    ((Cache.stats c).Cache.entries > 0);
  let hits_before = (Cache.stats c).Cache.hits in
  Alcotest.(check int) "warm equals uncached" reference (cached ());
  Alcotest.(check bool) "warm pass hits" true
    ((Cache.stats c).Cache.hits > hits_before);
  (* a view over (r, r) owns invalidation: one effective update drops
     every entry derived from r's fingerprint *)
  let view = View.init ~cache:c ~r ~s:r () in
  View.insert_r view 0 (Relation.dst_count r + 3);
  Alcotest.(check int) "all derived entries dropped" 0
    (Cache.stats c).Cache.entries;
  (* a no-op update (tuple already present) must not invalidate again *)
  let inv = (Cache.stats c).Cache.invalidations in
  View.insert_r view 0 (Relation.dst_count r + 3);
  Alcotest.(check int) "no-op update is silent" inv
    (Cache.stats c).Cache.invalidations

(* A count product is charged the cells it stores: n² for a full
   product of side n, n(n−1)/2 for the SSJ triangle, plus the 64-byte
   header either way. *)
let test_count_product_bytes () =
  let n = 40 in
  let m = Jp_matrix.Boolmat.create ~rows:n ~cols:8 in
  for i = 0 to n - 1 do
    Jp_matrix.Boolmat.set m i (i mod 8)
  done;
  let src = Jp_tile.Source.of_boolmat m and tile = Jp_tile.config () in
  let charged store =
    let c = Cache.create () in
    let r = Relation.of_edges [| (0, 0) |] in
    store (Cache.two_path_memo c ~r ~s:r);
    (Cache.stats c).Cache.bytes
  in
  Alcotest.(check int) "triangle"
    ((n * (n - 1) / 2 * 8) + 64)
    (charged (fun memo ->
         ignore
           (memo.Joinproj.Two_path.memo_upper_product ~d1:1 ~c:2
              ~kernel:Jp_matrix.Cost.Triangle (fun () ->
                Joinproj.Two_path.Triangle (Jp_tile.count_upper tile src)))));
  Alcotest.(check int) "full product"
    ((n * n * 8) + 64)
    (charged (fun memo ->
         ignore
           (memo.Joinproj.Two_path.memo_count_product ~d1:1 (fun () ->
                Jp_tile.count_product tile src src))))

(* The SSJ's saturating planes are charged k·rows·words·8 + 64 bytes:
   k planes of n rows, each row the payload words of n columns, under
   one header — far below the triangle's n(n−1)/2 cells at the same n.
   Each c is its own entry: one cache holding c = 2 and c = 3 charges
   both. *)
let test_plane_product_bytes () =
  let n = 187 and v = 300 in
  let m = Jp_matrix.Boolmat.create ~rows:n ~cols:v in
  for i = 0 to n - 1 do
    Jp_matrix.Boolmat.set m i (i mod v);
    Jp_matrix.Boolmat.set m i ((7 * i) mod v)
  done;
  let mt = Jp_matrix.Boolmat.create ~rows:v ~cols:n in
  for i = 0 to n - 1 do
    Jp_matrix.Boolmat.iter_row m i (fun y -> Jp_matrix.Boolmat.set mt y i)
  done;
  let a = Jp_tile.Source.of_boolmat m and at = Jp_tile.Source.of_boolmat mt in
  let tile = Jp_tile.config () in
  let c = Cache.create () in
  let r = Relation.of_edges [| (0, 0) |] in
  let memo = Cache.two_path_memo c ~r ~s:r in
  let planes k =
    memo.Joinproj.Two_path.memo_upper_product ~d1:1 ~c:k
      ~kernel:Jp_matrix.Cost.Planes (fun () ->
        Joinproj.Two_path.Planes (Jp_tile.upper_planes tile ~c:k a at))
  in
  let words = Jp_util.Bitset.payload_words n in
  let charge k = (k * n * words * 8) + 64 in
  ignore (planes 2);
  Alcotest.(check int) "c = 2" (charge 2) (Cache.stats c).Cache.bytes;
  ignore (planes 3);
  Alcotest.(check int) "c = 2 and c = 3" (charge 2 + charge 3)
    (Cache.stats c).Cache.bytes;
  let hits = (Cache.stats c).Cache.hits in
  (match planes 2 with
  | Joinproj.Two_path.Planes p -> Alcotest.(check int) "c = 2 hit: 2 planes" 2 (Array.length p)
  | Joinproj.Two_path.Triangle _ -> Alcotest.fail "c = 2 hit: a triangle");
  Alcotest.(check int) "c = 2 again is a hit" (hits + 1) (Cache.stats c).Cache.hits;
  Alcotest.(check bool) "planes below the triangle's cells" true
    (charge 2 * 9 < (n * (n - 1) / 2 * 8) + 64)

(* One cached prepared value read by two domains at once: it is
   immutable (nothing is forced on first use), so both plan exactly what
   a fresh [prepare] plans.  A value the 20N rule decided is charged a
   few words, below the indexed one. *)
let test_prepared_across_domains () =
  let module Optimizer = Joinproj.Optimizer in
  let machine =
    {
      Jp_matrix.Cost.ts = 1e-9;
      tm = 2.6e-8;
      ti = 1.45e-8;
      count_word = 1.5e-8;
      bool_word = 9e-9;
      cores = 2;
    }
  in
  let plans prep =
    ( Optimizer.plan_prepared ~machine prep (),
      Optimizer.plan_counts_prepared ~machine prep (),
      Optimizer.estimate_cost_prepared ~machine prep
        (Optimizer.Partitioned { d1 = 2; d2 = 2 }) )
  in
  let c = Cache.create () in
  let sparse = Gen.random_relation ~seed:3 ~nx:200 ~ny:200 ~edges:300 () in
  let dense = Gen.skewed_relation ~seed:11 ~nx:400 ~ny:60 ~edges:3000 () in
  let footprint r =
    let expected = plans (Optimizer.prepare ~r ~s:r) in
    let prep = Cache.prepared c ~r ~s:r in
    let worker () =
      List.init 50 (fun _ ->
          let p = Cache.prepared c ~r ~s:r in
          p == prep && plans p = expected)
      |> List.for_all Fun.id
    in
    let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
    let ok1 = Domain.join d1 and ok2 = Domain.join d2 in
    Alcotest.(check bool) "identical plans from both domains" true (ok1 && ok2);
    Optimizer.prepared_bytes prep
  in
  let sparse_bytes = footprint sparse and dense_bytes = footprint dense in
  Alcotest.(check bool) "20N-decided value is a few words" true
    (sparse_bytes <= 128);
  Alcotest.(check bool) "below the indexed footprint" true
    (sparse_bytes < dense_bytes)

(* ------------------------------------------------------------------ *)
(* the service path: hits, publication, and chaos                       *)
(* ------------------------------------------------------------------ *)

let result_binding c r expected =
  Cache.binding c int_tag
    (Cache.Key.of_relations ~kind:"test.result" [ r ])
    ~bytes_of:(fun _ -> 16)
    ~verify:(fun v -> v = expected)
    ()

let count_query r ~cancel ~degraded =
  let guard = if degraded then Some Guard.safe else None in
  (* poll up front so armed faults (window <= 4) fire even on tiny inputs *)
  for _ = 1 to 8 do
    Cancel.check cancel
  done;
  Pairs.count (Joinproj.Two_path.project ?guard ~cancel ~r ~s:r ())

let test_service_hit_path () =
  let r = small Presets.Jokes in
  let c = Cache.create () in
  let expected = Pairs.count (Joinproj.Two_path.project ~r ~s:r ()) in
  with_service Service.default (fun svc ->
      let submit () =
        Service.submit svc ~cached:(result_binding c r expected)
          (fun ~cancel ~attempt:_ ~degraded -> count_query r ~cancel ~degraded)
      in
      let rep1 = Service.await (submit ()) in
      (match rep1.Service.outcome with
      | Ok v -> Alcotest.(check int) "first result" expected v
      | Error e -> Alcotest.failf "first: %s" (Service.error_to_string e));
      Alcotest.(check bool) "first is a miss" false rep1.Service.cache_hit;
      let rep2 = Service.await (submit ()) in
      (match rep2.Service.outcome with
      | Ok v -> Alcotest.(check int) "second result" expected v
      | Error e -> Alcotest.failf "second: %s" (Service.error_to_string e));
      Alcotest.(check bool) "second is a hit" true rep2.Service.cache_hit;
      Alcotest.(check int) "hit ran no attempt" 0 rep2.Service.attempts)

let test_degraded_never_publishes () =
  let r = small Presets.Jokes in
  let c = Cache.create () in
  let expected = Pairs.count (Joinproj.Two_path.project ~r ~s:r ()) in
  (* every non-degraded attempt faults: the query only ever succeeds on
     the degraded final attempt, which must not publish *)
  let chaos = Some { (Chaos.default 11) with Chaos.p_transient = 1.0 } in
  let cfg = { Service.default with Service.chaos; max_retries = 1 } in
  with_service cfg (fun svc ->
      let submit () =
        Service.submit svc ~cached:(result_binding c r expected)
          (fun ~cancel ~attempt:_ ~degraded -> count_query r ~cancel ~degraded)
      in
      for round = 1 to 2 do
        let rep = Service.await (submit ()) in
        (match rep.Service.outcome with
        | Ok v ->
          Alcotest.(check int)
            (Printf.sprintf "round %d result" round)
            expected v
        | Error e -> Alcotest.failf "round %d: %s" round (Service.error_to_string e));
        Alcotest.(check bool)
          (Printf.sprintf "round %d degraded" round)
          true rep.Service.degraded;
        Alcotest.(check bool)
          (Printf.sprintf "round %d not served from cache" round)
          false rep.Service.cache_hit
      done;
      Alcotest.(check int) "nothing resident" 0 (Cache.stats c).Cache.entries)

let test_failed_verification_never_publishes () =
  let r = small Presets.Jokes in
  let c = Cache.create () in
  let expected = Pairs.count (Joinproj.Two_path.project ~r ~s:r ()) in
  (* a verifier that rejects everything: the clean success must still
     resolve the ticket, but the value may never become resident *)
  let binding =
    Cache.binding c int_tag
      (Cache.Key.of_relations ~kind:"test.result" [ r ])
      ~bytes_of:(fun _ -> 16)
      ~verify:(fun _ -> false)
      ()
  in
  Alcotest.(check bool) "publish refused" false
    (Cache.binding_publish binding ~cost_s:1.0 expected);
  Alcotest.(check int) "nothing resident" 0 (Cache.stats c).Cache.entries

(* Seeded sweep: under arbitrary transient-fault seeds, whatever ends up
   resident must equal the fault-free answer — the binding here has no
   verifier, so only the publish discipline protects the cache. *)
let test_chaos_sweep_publish_integrity () =
  let r = small Presets.Jokes in
  let expected = Pairs.count (Joinproj.Two_path.project ~r ~s:r ()) in
  List.iter
    (fun seed ->
      let c = Cache.create () in
      let key = Cache.Key.of_relations ~kind:"test.result" [ r ] in
      let binding = Cache.binding c int_tag key ~bytes_of:(fun _ -> 16) () in
      let chaos = Some { (Chaos.default seed) with Chaos.p_transient = 0.6 } in
      with_service { Service.default with Service.chaos } (fun svc ->
          for i = 0 to 5 do
            let rep =
              Service.await
                (Service.submit svc ~key:i ~cached:binding
                   (fun ~cancel ~attempt:_ ~degraded ->
                     count_query r ~cancel ~degraded))
            in
            match rep.Service.outcome with
            | Ok v ->
              Alcotest.(check int)
                (Printf.sprintf "seed %d query %d" seed i)
                expected v
            | Error _ -> ()
          done);
      match Cache.find c int_tag key with
      | Some v ->
        Alcotest.(check int)
          (Printf.sprintf "seed %d resident value" seed)
          expected v
      | None -> ())
    [ 1; 2; 3; 5; 8 ]

let suite =
  [
    Alcotest.test_case "put / find / tags" `Quick test_put_find;
    Alcotest.test_case "offer admission" `Quick test_offer_admission;
    Alcotest.test_case "landlord eviction" `Quick test_landlord_eviction;
    Alcotest.test_case "expensive survives squeeze" `Quick
      test_expensive_survives_squeeze;
    Alcotest.test_case "invalidate / clear" `Quick test_invalidate;
    Alcotest.test_case "memo + view invalidation" `Quick
      test_memo_and_view_invalidation;
    Alcotest.test_case "count products charged their stored cells" `Quick
      test_count_product_bytes;
    Alcotest.test_case "ssj planes charged per plane word" `Quick
      test_plane_product_bytes;
    Alcotest.test_case "prepared value shared across domains" `Quick
      test_prepared_across_domains;
    Alcotest.test_case "service hit path" `Quick test_service_hit_path;
    Alcotest.test_case "degraded never publishes" `Quick
      test_degraded_never_publishes;
    Alcotest.test_case "failed verification never publishes" `Quick
      test_failed_verification_never_publishes;
    Alcotest.test_case "chaos sweep publish integrity" `Quick
      test_chaos_sweep_publish_integrity;
  ]
