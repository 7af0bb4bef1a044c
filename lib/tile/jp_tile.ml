module Boolmat = Jp_matrix.Boolmat
module Intmat = Jp_matrix.Intmat
module Bitset = Jp_util.Bitset
module Cancel = Jp_util.Cancel
module Obs = Jp_obs
module Metrics = Jp_metrics
module Pool = Jp_parallel.Pool

type config = { tile_bits : int; budget_bytes : int option }

let default_tile_bits = 11

let min_tile_bits = 4

let config ?(tile_bits = default_tile_bits) ?budget_bytes () =
  { tile_bits = max min_tile_bits (min 20 tile_bits); budget_bytes }

module Source = struct
  type t = { rows : int; cols : int; adj : int -> (int -> unit) -> unit }

  let of_adjacency ~rows ~cols adj =
    if rows < 0 || cols < 0 then invalid_arg "Jp_tile.Source.of_adjacency";
    { rows; cols; adj }

  let of_boolmat m =
    { rows = Boolmat.rows m; cols = Boolmat.cols m; adj = Boolmat.iter_row m }

  let rows s = s.rows

  let cols s = s.cols
end

(* Number of tile blocks covering [n] positions at [ts] per tile. *)
let blocks n ts = (n + ts - 1) / ts

let tile_bytes_of m =
  (Boolmat.rows m * Bitset.payload_words (Boolmat.cols m) * 8) + 64

(* Boolean output tiles are a whole number of words wide, so each one
   owns whole words of its result rows. *)
let word_aligned ts = Bitset.bits_per_word * Bitset.payload_words ts

(* The tile shape fitted to one [u]×[w] output: the side is the
   smallest 2^k >= max(u, w) within [2^4, 2^tile_bits], halved while
   [domains > 1] leaves fewer than 2·domains scheduled output tiles
   ([col_width] maps a side to the output tile's column width; [upper]
   schedules only the t(t+1)/2 tiles on or above the diagonal of a
   square t×t grid).  Inner blocks span the whole inner dimension [v]
   unless a budget bounds the resident set, and are then as wide as the
   side.  Returns (side, inner). *)
let fit cfg ~domains ~col_width ~upper ~u ~v ~w =
  let floor = 1 lsl min_tile_bits and cap = 1 lsl cfg.tile_bits in
  let rec grow ts = if ts >= cap || ts >= max u w then ts else grow (2 * ts) in
  let scheduled ts =
    let t_i = blocks u ts in
    if upper then t_i * (t_i + 1) / 2 else t_i * blocks w (col_width ts)
  in
  let rec shrink ts =
    if domains > 1 && ts > floor && scheduled ts < 2 * domains
    then shrink (ts / 2)
    else ts
  in
  let side = shrink (grow floor) in
  (side, match cfg.budget_bytes with None -> max 1 v | Some _ -> side)

(* Build one operand tile: rows [r0, r0+th), inner columns [c0, c0+tw)
   of [src], remapped to a th×tw block.  Also returns the number of
   adjacency entries scanned — the deterministic build-cost proxy that
   seeds the tile's LANDLORD credit (wall clocks would make eviction
   order nondeterministic).  A tile spanning every column skips the
   per-entry column filter (~3% of a dense one-tile product). *)
let build_tile (src : Source.t) ~r0 ~th ~c0 ~tw =
  let m = Boolmat.create ~rows:th ~cols:tw in
  let scanned = ref 0 in
  let whole = c0 = 0 && tw = src.Source.cols in
  for i = 0 to th - 1 do
    let row = Boolmat.row m i in
    if whole then
      src.Source.adj (r0 + i) (fun j ->
          Stdlib.incr scanned;
          Bitset.set row j)
    else
      src.Source.adj (r0 + i) (fun j ->
          Stdlib.incr scanned;
          if j >= c0 && j < c0 + tw then Bitset.set row (j - c0))
  done;
  (m, !scanned)

(* ------------------------------------------------------------------ *)
(* Bounded resident store for operand tiles                            *)
(*                                                                     *)
(* One store per product invocation, covering both operands' tiles in  *)
(* a dense slot array (a-tiles first, then b-tiles).  LANDLORD like    *)
(* Jp_cache: every resident tile holds credit seeded by its build-cost *)
(* proxy and refreshed on hit; to admit a new tile, subtract the       *)
(* smallest credit-per-byte rate from everyone and evict whoever hits  *)
(* zero, in insertion order (deterministic for a fixed fetch order,    *)
(* i.e. whenever [domains = 1]).  Tiles are immutable, so an evicted   *)
(* tile still in use by another domain is simply rebuilt on next miss. *)

type entry = {
  t_bytes : int;
  t_cost : float;
  mutable t_credit : float;
  t_seq : int;
  t_tile : Boolmat.t;
}

type store = {
  lock : Mutex.t;
  budget : int option;
  slots : entry option array;
  mutable resident : int;
  mutable peak : int;
  mutable live : int;
  mutable seq : int;
}

let store_create ~budget ~nslots =
  {
    lock = Mutex.create ();
    budget;
    slots = Array.make nslots None;
    resident = 0;
    peak = 0;
    live = 0;
    seq = 0;
  }

let locked st f =
  Mutex.lock st.lock;
  match f () with
  | x ->
    Mutex.unlock st.lock;
    x
  | exception e ->
    Mutex.unlock st.lock;
    raise e

let drop_slot st idx e =
  st.slots.(idx) <- None;
  st.resident <- st.resident - e.t_bytes;
  st.live <- st.live - 1

(* Assumes the lock is held.  Each round the minimum-rate entry reaches
   zero, so at least one tile is evicted and the loop terminates. *)
let evict_until st ~need =
  match st.budget with
  | None -> 0
  | Some b ->
    let evicted = ref 0 in
    while st.resident + need > b && st.live > 0 do
      let min_rate = ref infinity in
      Array.iter
        (fun slot ->
          match slot with
          | None -> ()
          | Some e ->
            let rate = e.t_credit /. float_of_int (max 1 e.t_bytes) in
            if rate < !min_rate then min_rate := rate)
        st.slots;
      let victims = ref [] in
      Array.iteri
        (fun idx slot ->
          match slot with
          | None -> ()
          | Some e ->
            e.t_credit <-
              e.t_credit -. (!min_rate *. float_of_int (max 1 e.t_bytes));
            if e.t_credit <= 1e-12 then victims := (idx, e) :: !victims)
        st.slots;
      let victims =
        List.sort (fun (_, a) (_, b) -> Int.compare a.t_seq b.t_seq) !victims
      in
      List.iter
        (fun (idx, e) ->
          if st.slots.(idx) != None then begin
            drop_slot st idx e;
            Stdlib.incr evicted
          end)
        victims
    done;
    !evicted

(* Fetch-or-build.  The build runs outside the lock so misses on
   distinct tiles proceed in parallel; two domains missing on the same
   tile may both build it — the tiles are pure, so the second insert
   just replaces the first.  Counter cadence: one bump batch per fetch
   (= per tile), never per word. *)
let store_fetch st idx build =
  let hit =
    locked st (fun () ->
        match st.slots.(idx) with
        | Some e ->
          e.t_credit <- Float.max e.t_credit e.t_cost;
          Some e.t_tile
        | None -> None)
  in
  match hit with
  | Some tile ->
    Obs.incr Obs.C.tile_store_hits;
    tile
  | None ->
    let tile, scanned = build () in
    let bytes = tile_bytes_of tile in
    let admit = match st.budget with None -> true | Some b -> bytes <= b in
    let evicted, delta, grew =
      locked st (fun () ->
          if not admit then (0, 0, 0)
          else begin
            let evicted =
              (match st.slots.(idx) with
              | Some old -> drop_slot st idx old
              | None -> ());
              evict_until st ~need:bytes
            in
            let e =
              {
                t_bytes = bytes;
                t_cost = 1.0 +. float_of_int scanned;
                t_credit = 1.0 +. float_of_int scanned;
                t_seq = st.seq;
                t_tile = tile;
              }
            in
            st.seq <- st.seq + 1;
            st.slots.(idx) <- Some e;
            st.resident <- st.resident + bytes;
            st.live <- st.live + 1;
            let grew = max 0 (st.resident - st.peak) in
            st.peak <- max st.peak st.resident;
            (evicted, bytes, grew)
          end)
    in
    Obs.incr Obs.C.tile_builds;
    if evicted > 0 then Obs.add Obs.C.tile_evictions evicted;
    if delta <> 0 then begin
      Obs.add Obs.C.tile_bytes delta;
      Metrics.add_gauge Metrics.G.tile_bytes delta
    end;
    if grew > 0 then Obs.add Obs.C.tile_peak_bytes grew;
    tile

(* Release the whole store's footprint at the end of a product (the
   tiles themselves are garbage once the result is blitted). *)
let store_drain st =
  let bytes =
    locked st (fun () ->
        let b = st.resident in
        Array.iteri
          (fun idx slot ->
            match slot with Some e -> drop_slot st idx e | None -> ())
          st.slots;
        b)
  in
  if bytes <> 0 then begin
    Obs.add Obs.C.tile_bytes (-bytes);
    Metrics.add_gauge Metrics.G.tile_bytes (-bytes)
  end

(* ------------------------------------------------------------------ *)
(* Product schedule                                                    *)

let run_checkpoint = function Some f -> f () | None -> ()

(* Boolean product: output tile (ti, tj) is the OR over inner blocks k
   of A(ti,k)·B(k,tj).  Column tiles are word-aligned, so the tile owns
   the words holding columns [c0, c0+tw) of its result rows and ORs the
   selected B-tile rows straight into them: no scratch tile and no
   lock, and ORs commute, so the result is independent of the order in
   which tiles and inner blocks finish. *)
let mul ?(domains = 1) ?cancel ?checkpoint cfg (a : Source.t)
    (b : Source.t) =
  if a.Source.cols <> b.Source.rows then
    invalid_arg
      (Printf.sprintf "Jp_tile.mul: dimension mismatch (%dx%d . %dx%d)"
         a.Source.rows a.Source.cols b.Source.rows b.Source.cols);
  Obs.span "tile.mul" (fun () ->
      let u = a.Source.rows and v = a.Source.cols and w = b.Source.cols in
      let result = Boolmat.create ~rows:u ~cols:w in
      let ts, kt = fit cfg ~domains ~col_width:word_aligned ~upper:false ~u ~v ~w in
      let cw = word_aligned ts in
      let t_i = blocks u ts and t_k = blocks v kt and t_j = blocks w cw in
      if t_i = 0 || t_j = 0 then result
      else begin
        let store =
          store_create ~budget:cfg.budget_bytes
            ~nslots:((t_i * t_k) + (t_k * t_j))
        in
        let a_slot ti k = (ti * t_k) + k in
        let b_slot k tj = (t_i * t_k) + (k * t_j) + tj in
        let obs = Obs.recording () in
        let body t =
          let ti = t / t_j and tj = t mod t_j in
          run_checkpoint checkpoint;
          Obs.span "tile.mul_tile" (fun () ->
              let r0 = ti * ts and c0 = tj * cw in
              let th = min ts (u - r0) and tw = min cw (w - c0) in
              let unions = ref 0 in
              for k = 0 to t_k - 1 do
                let k0 = k * kt in
                let kw = min kt (v - k0) in
                let at =
                  store_fetch store (a_slot ti k) (fun () ->
                      build_tile a ~r0 ~th ~c0:k0 ~tw:kw)
                in
                let bt =
                  store_fetch store (b_slot k tj) (fun () ->
                      build_tile b ~r0:k0 ~th:kw ~c0 ~tw)
                in
                (* A tile as wide as the result (every product up to the
                   cap at domains = 1) ORs whole rows and skips the
                   offset checks, which cost ~5% of a dense product. *)
                for i = 0 to th - 1 do
                  let dst = Boolmat.row result (r0 + i) in
                  if obs then unions := !unions + Boolmat.row_nnz at i;
                  if tw = w then
                    Boolmat.iter_row at i (fun kk ->
                        Bitset.union_into ~dst (Boolmat.row bt kk))
                  else
                    Boolmat.iter_row at i (fun kk ->
                        Bitset.union_into_at ~dst c0 (Boolmat.row bt kk))
                done
              done;
              if obs then
                Obs.add Obs.C.mm_bool_word_ops
                  (!unions * Bitset.payload_words tw);
              Obs.incr Obs.C.tile_products)
        in
        Pool.parallel_for ~domains ~chunk:1 ?cancel ~lo:0 ~hi:(t_i * t_j) body;
        store_drain store;
        Cancel.check_opt cancel;
        result
      end)

(* True when no row of [m] has a bit set: a count block with an empty
   operand tile adds nothing. *)
let tile_empty m =
  let rec from i =
    i >= Boolmat.rows m || (Bitset.is_empty (Boolmat.row m i) && from (i + 1))
  in
  from 0

(* Count product: a : u×v and b : w×v over the same inner dimension.
   Output tile (ti, tj) owns the disjoint cell block
   [r0, r0+th) × [c0, c0+tw) of the result and adds each inner block's
   counts straight into those cells; inner-block partial counts are
   exact integer sums.  An inner block whose A tile is empty is skipped
   before its B tile is built, and one whose B tile is empty is skipped
   before any cell is touched.

   [upper] computes only the strict upper triangle of a·aᵀ ([b] is
   [a]): output tiles below the diagonal are not scheduled, diagonal
   tiles only compute columns past their row, and both sides of a
   product read the same operand-store slots.  Cells on and below the
   diagonal stay 0. *)
let count_body ~upper ~domains ?cancel ?checkpoint cfg (a : Source.t)
    (b : Source.t) =
  Obs.span (if upper then "tile.count_upper" else "tile.count_product") (fun () ->
      let u = a.Source.rows and v = a.Source.cols and w = b.Source.rows in
      let result = Intmat.create ~rows:u ~cols:w in
      let ts, kt = fit cfg ~domains ~col_width:Fun.id ~upper ~u ~v ~w in
      let t_i = blocks u ts and t_k = blocks v kt and t_j = blocks w ts in
      if t_i = 0 || t_j = 0 then result
      else begin
        let store =
          store_create ~budget:cfg.budget_bytes
            ~nslots:(if upper then t_i * t_k else (t_i * t_k) + (t_j * t_k))
        in
        let a_slot ti k = (ti * t_k) + k in
        let b_slot tj k =
          if upper then a_slot tj k else (t_i * t_k) + (tj * t_k) + k
        in
        (* Output tiles in row-major order; the upper triangle keeps
           tj >= ti. *)
        let tiles =
          Array.of_seq
            (Seq.filter
               (fun t -> (not upper) || t mod t_j >= t / t_j)
               (Seq.init (t_i * t_j) Fun.id))
        in
        let obs = Obs.recording () in
        let body idx =
          let t = tiles.(idx) in
          let ti = t / t_j and tj = t mod t_j in
          run_checkpoint checkpoint;
          Obs.span "tile.count_tile" (fun () ->
              let r0 = ti * ts and c0 = tj * ts in
              let th = min ts (u - r0) and tw = min ts (w - c0) in
              let diagonal = upper && ti = tj in
              let words = ref 0 in
              for k = 0 to t_k - 1 do
                let k0 = k * kt in
                let kw = min kt (v - k0) in
                let at =
                  store_fetch store (a_slot ti k) (fun () ->
                      build_tile a ~r0 ~th ~c0:k0 ~tw:kw)
                in
                if not (tile_empty at) then begin
                  let bt =
                    if diagonal then at
                    else
                      store_fetch store (b_slot tj k) (fun () ->
                          build_tile b ~r0:c0 ~th:tw ~c0:k0 ~tw:kw)
                  in
                  if not (tile_empty bt) then
                    for i = 0 to th - 1 do
                      let arow = Boolmat.row at i in
                      if not (Bitset.is_empty arow) then begin
                        let dst = Intmat.row result (r0 + i) in
                        let l0 = if diagonal then i + 1 else 0 in
                        words := !words + ((tw - l0) * Bitset.payload_words kw);
                        for l = l0 to tw - 1 do
                          let n = Bitset.inter_count arow (Boolmat.row bt l) in
                          if n > 0 then dst.(c0 + l) <- dst.(c0 + l) + n
                        done
                      end
                    done
                end
              done;
              if obs then Obs.add Obs.C.mm_count_word_ops !words;
              Obs.incr Obs.C.tile_products)
        in
        Pool.parallel_for ~domains ~chunk:1 ?cancel ~lo:0
          ~hi:(Array.length tiles) body;
        store_drain store;
        Cancel.check_opt cancel;
        result
      end)

let count_product ?(domains = 1) ?cancel ?checkpoint cfg (a : Source.t)
    (b : Source.t) =
  if a.Source.cols <> b.Source.cols then
    invalid_arg
      (Printf.sprintf
         "Jp_tile.count_product: inner dim mismatch (%dx%d . (%dx%d)T)"
         a.Source.rows a.Source.cols b.Source.rows b.Source.cols);
  count_body ~upper:false ~domains ?cancel ?checkpoint cfg a b

let count_upper ?(domains = 1) ?cancel ?checkpoint cfg a =
  count_body ~upper:true ~domains ?cancel ?checkpoint cfg a a
