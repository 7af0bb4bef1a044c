module Relation = Jp_relation.Relation
module Boolmat = Jp_matrix.Boolmat
module Intmat = Jp_matrix.Intmat
module Optimizer = Joinproj.Optimizer
module Two_path = Joinproj.Two_path
module Obs = Jp_obs
module Timer = Jp_util.Timer

type config = { budget_bytes : int; admit_seconds_per_mb : float }

let default_config =
  { budget_bytes = 64 * 1024 * 1024; admit_seconds_per_mb = 0.005 }

let with_budget_mb mb = { default_config with budget_bytes = mb * 1024 * 1024 }

(* ------------------------------------------------------------------ *)
(* keys                                                                *)

module Key = struct
  type t = { k_str : string; k_fps : int list }

  let v ~kind ?(fps = []) ?(params = []) () =
    let b = Buffer.create 48 in
    Buffer.add_string b kind;
    List.iter (fun fp -> Buffer.add_string b (Printf.sprintf "|%x" fp)) fps;
    List.iter (fun p -> Buffer.add_string b (Printf.sprintf ":%d" p)) params;
    { k_str = Buffer.contents b; k_fps = fps }

  let of_relations ~kind ?params rels =
    v ~kind ~fps:(List.map Relation.fingerprint rels) ?params ()

  let to_string k = k.k_str
end

(* ------------------------------------------------------------------ *)
(* heterogeneous values: one extension constructor per tag             *)

type univ = ..

type 'a tag = { inj : 'a -> univ; proj : univ -> 'a option }

let tag (type s) (_name : string) : s tag =
  let module M = struct
    type univ += U of s
  end in
  {
    inj = (fun x -> M.U x);
    proj = (function M.U x -> Some x | _ -> None);
  }

(* ------------------------------------------------------------------ *)
(* the store                                                           *)

type entry = {
  e_key : string;
  e_fps : int list;
  e_bytes : int;
  e_cost : float; (* measured recompute seconds; eviction credit ceiling *)
  mutable e_credit : float; (* LANDLORD credit, refreshed on hit *)
  e_seq : int; (* insertion order: deterministic tie-break *)
  e_value : univ;
}

type t = {
  lock : Mutex.t;
  cfg : config;
  table : (string, entry) Hashtbl.t;
  by_fp : (int, string list ref) Hashtbl.t;
  miss_counts : (string, int) Hashtbl.t;
  mutable bytes : int;
  mutable seq : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable rejections : int;
  mutable invalidations : int;
}

let create ?(config = default_config) () =
  {
    lock = Mutex.create ();
    cfg = config;
    table = Hashtbl.create 64;
    by_fp = Hashtbl.create 64;
    miss_counts = Hashtbl.create 64;
    bytes = 0;
    seq = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    rejections = 0;
    invalidations = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | x ->
    Mutex.unlock t.lock;
    x
  | exception e ->
    Mutex.unlock t.lock;
    raise e

(* Bound on the miss-popularity table so an adversarial key stream cannot
   grow it without limit; once full, unseen keys count as one miss. *)
let max_tracked_keys = 1 lsl 16

let note_miss t key =
  t.misses <- t.misses + 1;
  Obs.incr Obs.C.cache_misses;
  match Hashtbl.find_opt t.miss_counts key with
  | Some n -> Hashtbl.replace t.miss_counts key (n + 1)
  | None ->
    if Hashtbl.length t.miss_counts < max_tracked_keys then
      Hashtbl.replace t.miss_counts key 1

let misses_seen t key =
  match Hashtbl.find_opt t.miss_counts key with Some n -> n | None -> 1

(* Unlink [e] from the table, the fingerprint index and the byte gauge.
   Callers account the removal as an eviction or an invalidation. *)
let drop_entry t e =
  Hashtbl.remove t.table e.e_key;
  t.bytes <- t.bytes - e.e_bytes;
  Obs.add Obs.G.cache_bytes (-e.e_bytes);
  List.iter
    (fun fp ->
      match Hashtbl.find_opt t.by_fp fp with
      | None -> ()
      | Some keys ->
        keys := List.filter (fun k -> k <> e.e_key) !keys;
        if !keys = [] then Hashtbl.remove t.by_fp fp)
    e.e_fps

(* LANDLORD: every entry holds credit (seeded by its recompute cost,
   refreshed on hit); to free space, subtract the smallest credit-per-byte
   rate from everyone and evict whoever reaches zero.  Victim order is the
   insertion sequence, so eviction is deterministic for a given call
   sequence even though Hashtbl iteration order is unspecified. *)
let evict_until t ~need =
  while t.bytes + need > t.cfg.budget_bytes && Hashtbl.length t.table > 0 do
    let min_rate = ref infinity in
    Hashtbl.iter
      (fun _ e ->
        let rate = e.e_credit /. float_of_int (max 1 e.e_bytes) in
        if rate < !min_rate then min_rate := rate)
      t.table;
    let victims = ref [] in
    Hashtbl.iter
      (fun _ e ->
        e.e_credit <-
          e.e_credit -. (!min_rate *. float_of_int (max 1 e.e_bytes));
        if e.e_credit <= 1e-12 then victims := e :: !victims)
      t.table;
    let victims =
      List.sort (fun a b -> Int.compare a.e_seq b.e_seq) !victims
    in
    (* The minimum-rate entry always lands at zero, so each round evicts
       at least one entry and the loop terminates. *)
    let evicted = ref 0 in
    List.iter
      (fun e ->
        if Hashtbl.mem t.table e.e_key then begin
          drop_entry t e;
          t.evictions <- t.evictions + 1;
          Stdlib.incr evicted
        end)
      victims;
    Obs.add Obs.C.cache_evictions !evicted
  done

let insert t ~key ~fps ~bytes ~cost_s value =
  (match Hashtbl.find_opt t.table key with
  | Some old -> drop_entry t old
  | None -> ());
  evict_until t ~need:bytes;
  let e =
    {
      e_key = key;
      e_fps = fps;
      e_bytes = bytes;
      e_cost = cost_s;
      e_credit = cost_s;
      e_seq = t.seq;
      e_value = value;
    }
  in
  t.seq <- t.seq + 1;
  Hashtbl.replace t.table key e;
  t.bytes <- t.bytes + bytes;
  Obs.add Obs.G.cache_bytes bytes;
  List.iter
    (fun fp ->
      match Hashtbl.find_opt t.by_fp fp with
      | Some keys -> keys := key :: !keys
      | None -> Hashtbl.replace t.by_fp fp (ref [ key ]))
    fps

let find t tg key =
  locked t (fun () ->
      let ks = Key.to_string key in
      match Hashtbl.find_opt t.table ks with
      | Some e -> (
        match tg.proj e.e_value with
        | Some v ->
          (* Refresh the LANDLORD credit up to the entry's recompute
             cost: recently useful entries survive the next squeeze. *)
          e.e_credit <- Float.max e.e_credit e.e_cost;
          t.hits <- t.hits + 1;
          Obs.incr Obs.C.cache_hits;
          Some v
        | None ->
          (* Same key string through a different tag: treat as a miss. *)
          note_miss t ks;
          None)
      | None ->
        note_miss t ks;
        None)

let put t tg key ~bytes ~cost_s v =
  locked t (fun () ->
      if bytes <= t.cfg.budget_bytes then
        insert t ~key:(Key.to_string key) ~fps:key.Key.k_fps ~bytes ~cost_s
          (tg.inj v)
      else begin
        t.rejections <- t.rejections + 1;
        Obs.incr Obs.C.cache_rejects
      end)

let offer t tg key ~bytes ~cost_s v =
  locked t (fun () ->
      let ks = Key.to_string key in
      let admit =
        bytes <= t.cfg.budget_bytes
        && cost_s *. float_of_int (misses_seen t ks)
           >= t.cfg.admit_seconds_per_mb
              *. (float_of_int bytes /. (1024.0 *. 1024.0))
      in
      if admit then insert t ~key:ks ~fps:key.Key.k_fps ~bytes ~cost_s (tg.inj v)
      else begin
        t.rejections <- t.rejections + 1;
        Obs.incr Obs.C.cache_rejects
      end;
      admit)

let invalidate t ~fp =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_fp fp with
      | None -> ()
      | Some keys ->
        List.iter
          (fun key ->
            match Hashtbl.find_opt t.table key with
            | None -> ()
            | Some e ->
              drop_entry t e;
              t.invalidations <- t.invalidations + 1;
              Obs.incr Obs.C.cache_invalidations)
          !keys;
        Hashtbl.remove t.by_fp fp)

let clear t =
  locked t (fun () ->
      Obs.add Obs.G.cache_bytes (-t.bytes);
      Hashtbl.reset t.table;
      Hashtbl.reset t.by_fp;
      Hashtbl.reset t.miss_counts;
      t.bytes <- 0)

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  evictions : int;
  rejections : int;
  invalidations : int;
}

let stats t =
  locked t (fun () ->
      {
        entries = Hashtbl.length t.table;
        bytes = t.bytes;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        rejections = t.rejections;
        invalidations = t.invalidations;
      })

let pp_stats fmt s =
  Format.fprintf fmt
    "cache: %d entries, %d bytes, %d hits / %d misses, %d evicted, %d rejected, %d invalidated"
    s.entries s.bytes s.hits s.misses s.evictions s.rejections s.invalidations

(* ------------------------------------------------------------------ *)
(* typed views                                                         *)

let prepared_tag : Optimizer.prepared tag = tag "two_path.prep"

let boolmat_tag : Boolmat.t tag = tag "two_path.bool_mm"

let intmat_tag : Intmat.t tag = tag "two_path.count_mm"

let upper_tag : Two_path.upper_product tag = tag "two_path.ssj_mm"

let boolmat_bytes m =
  (Boolmat.rows m * ((Boolmat.cols m + 61) / 62) * 8) + 64

(* The cells actually stored: n² for a full product, n(n−1)/2 for a
   triangle. *)
let intmat_bytes (m : Intmat.t) =
  (Array.fold_left (fun n row -> n + Array.length row) 0 m.Intmat.data * 8) + 64

(* An SSJ product: its triangle's cells, or k planes of rows·words
   payload words under one header. *)
let upper_bytes = function
  | Two_path.Triangle m -> intmat_bytes m
  | Two_path.Planes planes ->
    Array.fold_left (fun n m -> n + boolmat_bytes m - 64) 64 planes

(* L1/L2 build-or-fetch.  The builder runs outside the lock (which covers
   only find/put), so two concurrent misses may both build; the second
   [put] simply replaces the first with an identical value — the values
   are pure functions of the key.  Determinism is unaffected. *)
let find_or_build t tg key ~bytes_of build =
  match find t tg key with
  | Some v -> v
  | None ->
    let t0 = Timer.now () in
    let v = build () in
    let cost = Timer.now () -. t0 in
    put t tg key ~bytes:(bytes_of v) ~cost_s:cost v;
    v

let prepared_keyed t ~fps build =
  let key = Key.v ~kind:"two_path.prep" ~fps () in
  find_or_build t prepared_tag key ~bytes_of:Optimizer.prepared_bytes build

let prepared t ~r ~s =
  prepared_keyed t
    ~fps:[ Relation.fingerprint r; Relation.fingerprint s ]
    (fun () -> Optimizer.prepare ~r ~s)

let two_path_memo t ~r ~s =
  let fps = [ Relation.fingerprint r; Relation.fingerprint s ] in
  {
    Two_path.memo_prepared = (fun build -> prepared_keyed t ~fps build);
    memo_bool_product =
      (fun ~d1 ~d2 build ->
        let key = Key.v ~kind:"two_path.bool_mm" ~fps ~params:[ d1; d2 ] () in
        find_or_build t boolmat_tag key ~bytes_of:boolmat_bytes build);
    memo_count_product =
      (fun ~d1 build ->
        let key = Key.v ~kind:"two_path.count_mm" ~fps ~params:[ d1 ] () in
        find_or_build t intmat_tag key ~bytes_of:intmat_bytes build);
    memo_upper_product =
      (fun ~d1 ~c ~kernel build ->
        let kernel =
          match kernel with
          | Jp_matrix.Cost.Triangle -> 0
          | Jp_matrix.Cost.Planes -> 1
        in
        let key =
          Key.v ~kind:"two_path.ssj_mm" ~fps ~params:[ d1; c; kernel ] ()
        in
        find_or_build t upper_tag key ~bytes_of:upper_bytes build);
  }

(* ------------------------------------------------------------------ *)
(* L3 bindings                                                         *)

type 'a binding = {
  b_cache : t;
  b_tag : 'a tag;
  b_key : Key.t;
  b_bytes_of : 'a -> int;
  b_verify : 'a -> bool;
}

let binding t tg key ~bytes_of ?(verify = fun _ -> true) () =
  { b_cache = t; b_tag = tg; b_key = key; b_bytes_of = bytes_of; b_verify = verify }

let binding_find b = find b.b_cache b.b_tag b.b_key

let binding_publish b ~cost_s v =
  b.b_verify v
  && offer b.b_cache b.b_tag b.b_key ~bytes:(b.b_bytes_of v) ~cost_s v
