module Boolmat = Jp_matrix.Boolmat
module Intmat = Jp_matrix.Intmat
module Bitset = Jp_util.Bitset
module Cancel = Jp_util.Cancel
module Obs = Jp_obs
module Pool = Jp_parallel.Pool

type config = { tile_bits : int; budget_bytes : int option }

let default_tile_bits = 11

let min_tile_bits = 4

let config ?(tile_bits = default_tile_bits) ?budget_bytes () =
  { tile_bits = max min_tile_bits (min 20 tile_bits); budget_bytes }

module Source = struct
  (* A row's ones: through a callback, or as an id list through a column
     index (row i holds index.(b) for every b of [list i] with
     index.(b) >= 0), which [build_tile] reads in a loop instead of
     through two closure calls per entry. *)
  type entries =
    | Adjacency of (int -> (int -> unit) -> unit)
    | Mapped of (int -> int array) * int array

  type t = { rows : int; cols : int; entries : entries }

  let make name ~rows ~cols entries =
    if rows < 0 || cols < 0 then invalid_arg ("Jp_tile.Source." ^ name);
    { rows; cols; entries }

  let of_adjacency ~rows ~cols adj = make "of_adjacency" ~rows ~cols (Adjacency adj)

  let of_mapped ~rows ~cols list index =
    make "of_mapped" ~rows ~cols (Mapped (list, index))

  let of_boolmat m =
    make "of_boolmat" ~rows:(Boolmat.rows m) ~cols:(Boolmat.cols m)
      (Adjacency (Boolmat.iter_row m))
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
   ([col_width] maps a side to the output tile's column width; [keep],
   when given, picks the scheduled tiles of a side-high, col_width-wide
   grid).  Inner blocks span the whole inner dimension [v] unless a
   budget bounds the resident set, and are then as wide as the side.
   Returns (side, inner). *)
let fit cfg ~domains ~col_width ?keep ~u ~v ~w () =
  let floor = 1 lsl min_tile_bits and cap = 1 lsl cfg.tile_bits in
  let rec grow ts = if ts >= cap || ts >= max u w then ts else grow (2 * ts) in
  let scheduled ts =
    let cw = col_width ts in
    match keep with
    | None -> blocks u ts * blocks w cw
    | Some keep ->
      let n = ref 0 in
      for ti = 0 to blocks u ts - 1 do
        for tj = 0 to blocks w cw - 1 do
          if keep ~rh:ts ~cw ti tj then incr n
        done
      done;
      !n
  in
  let rec shrink ts =
    if domains > 1 && ts > floor && scheduled ts < 2 * domains
    then shrink (ts / 2)
    else ts
  in
  let side = shrink (grow floor) in
  (side, match cfg.budget_bytes with None -> max 1 v | Some _ -> side)

(* The triangle product's tiles: on or above the diagonal of a square
   grid. *)
let on_or_above ~rh:_ ~cw:_ ti tj = tj >= ti

(* The upper-masked row-OR product's tiles: those holding a cell (i, l)
   with l > i, i.e. whose last column lies past their first row. *)
let past_diagonal ~w ~rh ~cw ti tj = min w ((tj + 1) * cw) - 1 > ti * rh

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
  (match src.Source.entries with
  | Source.Mapped (list, index) ->
    for i = 0 to th - 1 do
      scanned := !scanned + Bitset.set_mapped (Boolmat.row m i) ~lo:c0 (list (r0 + i)) index
    done
  | Source.Adjacency adj ->
    for i = 0 to th - 1 do
      let row = Boolmat.row m i in
      if whole then
        adj (r0 + i) (fun j ->
            Stdlib.incr scanned;
            Bitset.set row j)
      else
        adj (r0 + i) (fun j ->
            Stdlib.incr scanned;
            if j >= c0 && j < c0 + tw then Bitset.set row (j - c0))
    done);
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
            let before = st.resident in
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
            (evicted, st.resident - before, grew)
          end)
    in
    Obs.incr Obs.C.tile_builds;
    if evicted > 0 then Obs.add Obs.C.tile_evictions evicted;
    if delta <> 0 then Obs.add Obs.G.tile_bytes delta;
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
  if bytes <> 0 then Obs.add Obs.G.tile_bytes (-bytes)

(* ------------------------------------------------------------------ *)
(* Product schedule                                                    *)

let run_checkpoint = function Some f -> f () | None -> ()

(* [mul_rows] fits its band height to keep a band under this size. *)
let band_bytes = 1 lsl 20

let check_dims name (a : Source.t) (b : Source.t) =
  if a.Source.cols <> b.Source.rows then
    invalid_arg
      (Printf.sprintf "Jp_tile.%s: dimension mismatch (%dx%d . %dx%d)" name
         a.Source.rows a.Source.cols b.Source.rows b.Source.cols)

(* The row-OR product: output tile (ti, tj) is the OR over inner blocks
   k of A(ti,k)·B(k,tj).  Column tiles are word-aligned, so the tile
   owns the words holding columns [c0, c0+tw) of its result rows and
   ORs the selected B-tile rows straight into them: no scratch tile and
   no lock, and ORs commute, so the result is independent of the order
   in which tiles and inner blocks finish.

   [dst] holds one row function per plane.  Without [upper] it has one
   plane and this is the boolean product.  With [upper] each selected B
   row adds one, saturating at k = the number of planes, to the
   thermometer planes of its result row ([Boolmat.saturate_rows]):
   plane j of cell (i, l) reads "at least j + 1 selected rows set
   column l", i.e. min((A·B)(i,l), k) over the integer product, and
   only the cells l > i are kept.  A saturating add commutes too, so
   the order argument carries over.  Tiles wholly at or below the
   diagonal are not scheduled, each row starts at the word holding
   column i + 1, and once all inner blocks are in, the bits below
   i + 1 in that word are cleared — the tile owns the word, so no other
   domain writes it.

   Rows run in bands of whole row blocks (the tile side high, or the
   band when it is lower), at most [band_rows] rows: one pool round
   writes a band's i-th row into [dst.(j) i], then [finish r0 r1] runs
   on the calling domain.  [mul] is one band over the result. *)
let or_bands ~domains ?cancel ?checkpoint ?(upper = false) cfg (a : Source.t)
    (b : Source.t) ~band_rows ~dst ~finish =
  let u = a.Source.rows and v = a.Source.cols and w = b.Source.cols in
  let planes = Array.length dst in
  let keep = if upper then Some (past_diagonal ~w) else None in
  let ts, kt =
    fit cfg ~domains ~col_width:word_aligned ?keep ~u:(min u band_rows) ~v ~w ()
  in
  let rh = min ts band_rows and cw = word_aligned ts in
  let band = rh * max 1 (band_rows / rh) in
  let t_i = blocks u rh and t_k = blocks v kt and t_j = blocks w cw in
  let store =
    store_create ~budget:cfg.budget_bytes ~nslots:((t_i * t_k) + (t_k * t_j))
  in
  let a_slot ti k = (ti * t_k) + k in
  let b_slot k tj = (t_i * t_k) + (k * t_j) + tj in
  let obs = Obs.recording () in
  (* first row of the band being computed *)
  let base = ref 0 in
  (* the band's scheduled tiles, as offsets from its first row block *)
  let tiles = ref [||] in
  let body t =
    let t = if upper then !tiles.(t) else t in
    let ti = (!base / rh) + (t / t_j) and tj = t mod t_j in
    run_checkpoint checkpoint;
    Obs.span (if upper then "tile.plane_tile" else "tile.mul_tile") (fun () ->
        let r0 = ti * rh and c0 = tj * cw in
        let th = min rh (u - r0) and tw = min cw (w - c0) in
        let ops = ref 0 in
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
          if not upper then begin
            (* A tile as wide as the result (every product up to the
               cap at domains = 1) ORs whole rows and skips the
               offset checks, which cost ~5% of a dense product.  The
               OR closure is made once per block, not once per row. *)
            let dst = dst.(0) in
            let row = ref (dst (r0 - !base)) in
            let union =
              if tw = w then fun kk -> Bitset.union_into ~dst:!row (Boolmat.row bt kk)
              else fun kk -> Bitset.union_into_at ~dst:!row c0 (Boolmat.row bt kk)
            in
            for i = 0 to th - 1 do
              row := dst (r0 - !base + i);
              if obs then ops := !ops + Boolmat.row_nnz at i;
              Boolmat.iter_row at i union
            done
          end
          else begin
            let rows = Array.map (fun d -> d (r0 - !base)) dst in
            let words = Bitset.payload_words tw in
            for i = 0 to th - 1 do
              (* the first word holding a column past the diagonal *)
              let from = max 0 (r0 + i + 1 - c0) / Bitset.bits_per_word in
              if r0 + i + 1 < c0 + tw then begin
                for j = 0 to planes - 1 do
                  rows.(j) <- dst.(j) (r0 - !base + i)
                done;
                if obs then
                  ops := !ops + (Boolmat.row_nnz at i * planes * (words - from));
                Boolmat.saturate_rows rows c0 ~from ~sel:(Boolmat.row at i) bt
              end
            done
          end
        done;
        if upper then
          for i = 0 to th - 1 do
            let l = r0 + i + 1 in
            if l > c0 && l < c0 + tw then
              Array.iter (fun d -> Bitset.clear_word_below (d (r0 - !base + i)) l) dst
          done;
        if obs then
          if upper then Obs.add Obs.C.mm_count_word_ops !ops
          else Obs.add Obs.C.mm_bool_word_ops (!ops * Bitset.payload_words tw);
        Obs.incr Obs.C.tile_products)
  in
  Fun.protect
    ~finally:(fun () -> store_drain store)
    (fun () ->
      while !base < u do
        let r1 = min u (!base + band) in
        let n = blocks (r1 - !base) rh * t_j in
        let n =
          if not upper then n
          else begin
            tiles :=
              Array.of_seq
                (Seq.filter
                   (fun t -> past_diagonal ~w ~rh ~cw ((!base / rh) + (t / t_j)) (t mod t_j))
                   (Seq.init n Fun.id));
            Array.length !tiles
          end
        in
        Pool.parallel_for ~domains ~chunk:1 ?cancel ~lo:0 ~hi:n body;
        finish !base r1;
        base := r1
      done)

let mul ?(domains = 1) ?cancel ?checkpoint cfg (a : Source.t)
    (b : Source.t) =
  check_dims "mul" a b;
  Obs.span "tile.mul" (fun () ->
      let result = Boolmat.create ~rows:a.Source.rows ~cols:b.Source.cols in
      or_bands ~domains ?cancel ?checkpoint cfg a b ~band_rows:max_int
        ~dst:[| Boolmat.row result |]
        ~finish:(fun _ _ -> ());
      result)

let mul_rows ~domains ?cancel cfg (a : Source.t) (b : Source.t) f =
  check_dims "mul_rows" a b;
  Obs.span "tile.mul_rows" (fun () ->
      let w = b.Source.cols in
      let band_rows = max 1 (band_bytes / (8 * (Bitset.payload_words w + 1))) in
      let buf = Boolmat.create ~rows:(min a.Source.rows band_rows) ~cols:w in
      or_bands ~domains ?cancel cfg a b ~band_rows ~dst:[| Boolmat.row buf |]
        ~finish:(fun r0 r1 ->
          for r = r0 to r1 - 1 do
            let row = Boolmat.row buf (r - r0) in
            f r row;
            Bitset.clear row
          done))

let upper_planes ?(domains = 1) ?cancel ?checkpoint cfg ~c (a : Source.t)
    (b : Source.t) =
  check_dims "upper_planes" a b;
  if c < 1 then invalid_arg "Jp_tile.upper_planes: c must be >= 1";
  Obs.span "tile.upper_planes" (fun () ->
      let planes =
        Array.init c (fun _ -> Boolmat.create ~rows:a.Source.rows ~cols:b.Source.cols)
      in
      or_bands ~domains ?cancel ?checkpoint ~upper:true cfg a b
        ~band_rows:max_int ~dst:(Array.map Boolmat.row planes)
        ~finish:(fun _ _ -> ());
      planes)

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
   product read the same operand-store slots.  The result is an
   {!Intmat.create_upper} triangle: row r stores only the cells past the
   diagonal, column c at position c - r - 1. *)
let count_body ~upper ~domains ?cancel ?checkpoint cfg (a : Source.t)
    (b : Source.t) =
  Obs.span (if upper then "tile.count_upper" else "tile.count_product") (fun () ->
      let u = a.Source.rows and v = a.Source.cols and w = b.Source.rows in
      let result =
        if upper then Intmat.create_upper u else Intmat.create ~rows:u ~cols:w
      in
      let ts, kt =
        fit cfg ~domains ~col_width:Fun.id
          ?keep:(if upper then Some on_or_above else None)
          ~u ~v ~w ()
      in
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
                        (* column c0 + l of the result row; a triangle row
                           starts past its diagonal cell *)
                        let off = if upper then c0 - (r0 + i + 1) else c0 in
                        let l0 = if diagonal then i + 1 else 0 in
                        words := !words + ((tw - l0) * Bitset.payload_words kw);
                        for l = l0 to tw - 1 do
                          let n = Bitset.inter_count arow (Boolmat.row bt l) in
                          if n > 0 then dst.(off + l) <- dst.(off + l) + n
                        done
                      end
                    done
                end
              done;
              if obs then Obs.add Obs.C.mm_count_word_ops !words;
              Obs.incr Obs.C.tile_products)
        in
        Fun.protect
          ~finally:(fun () -> store_drain store)
          (fun () ->
            Pool.parallel_for ~domains ~chunk:1 ?cancel ~lo:0
              ~hi:(Array.length tiles) body);
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
