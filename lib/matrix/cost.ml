module Relation = Jp_relation.Relation

(* The SSJ kernel price's fitted multipliers of the machine's word
   constants: least squares on relative error over the 185 counted-ssj
   products of perfbench seeds 1 and 2, each kernel timed alone, then
   scaled so that the pinned constants' count/bool ratio reproduces the
   fitted time ratio (EXPERIMENTS.md, "SSJ planes" and "SSJ planes
   straight from S⁺").  A triangle cell pays [cell_words] count words of
   call, spare-word and store overhead beside [cell_word] per payload
   word of the inner dimension, and its one operand build [build_words]
   per one of A.  The planes pay [plane_word] boolean words per plane
   word the merge saturates and [select_words] per one of A: its bit in
   the S⁺ rows, and the selection of its row by its heavy x.  The
   boolean 2-path's merge ORs the same S⁺ rows into one unmasked plane,
   so its heavy part is priced with the same two multipliers. *)
let cell_words = 2.3

let cell_word = 0.5

let build_words = 0.5

let plane_word = 0.43

let select_words = 2.0

let lemma1 ~u ~v ~w =
  if min u (min v w) <= 0 then 0.0
  else float_of_int u *. float_of_int v *. float_of_int w

type machine = {
  ts : float;
  tm : float;
  ti : float;
  count_word : float;
  bool_word : float;
  cores : int;
}

let measure_ts n =
  let a = Array.init n (fun i -> i) in
  let t0 = Jp_util.Timer.now () in
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + Array.unsafe_get a i
  done;
  let dt = Jp_util.Timer.now () -. t0 in
  Sys.opaque_identity !s |> ignore;
  dt /. float_of_int n

let measure_tm n =
  (* Allocate n small (4-word ≈ 32 byte) blocks. *)
  let t0 = Jp_util.Timer.now () in
  let keep = ref [] in
  for i = 0 to n - 1 do
    if i land 1023 = 0 then keep := [] else keep := Array.make 3 i :: !keep
  done;
  let dt = Jp_util.Timer.now () -. t0 in
  Sys.opaque_identity !keep |> ignore;
  dt /. float_of_int n

type constant = Ti | Count_word | Bool_word

type probe = { counter : string; work : int; run : unit -> unit }

(* A seeded p×p operand of density 0.6, as the sorted id lists a
   partition's heavy operand is built from. *)
let operand rng p =
  let ids = Array.init p Fun.id in
  let rows =
    Array.init p (fun _ ->
        let ones = ref [] in
        for j = 0 to p - 1 do
          if Jp_util.Rng.float rng 1.0 < 0.6 then ones := j :: !ones
        done;
        Array.of_list (List.rev !ones))
  in
  (rows, Tile.Source.of_mapped ~rows:p ~cols:p (Array.get rows) ids)

(* TI prices one pre-projection join tuple in the stamp-vector expansion
   (Section 6's inner loop), so the probe is [Expand.project] over
   random adjacency: nx x values of deg y's each, deg z's per y, which
   touches about n join tuples.  A plain random-access loop underprices
   this by an order of magnitude and would bias Algorithm 3 against the
   matrix plan. *)
let ti_probe n =
  let rng = Jp_util.Rng.create 0xC0FFEE in
  let nx = max 64 (int_of_float (sqrt (float_of_int n))) in
  let deg = max 4 (int_of_float (sqrt (float_of_int (n / nx)))) in
  let nz = 4 * deg in
  let adj_r = Array.init nx (fun _ -> Array.init deg (fun _ -> Jp_util.Rng.int rng nz)) in
  let adj_s = Array.init nz (fun _ -> Array.init deg (fun _ -> Jp_util.Rng.int rng nz)) in
  let r = Relation.of_sets ~dst_count:nz adj_r
  and s = Relation.transpose (Relation.of_sets ~dst_count:nz adj_s) in
  let work = ref 0 in
  Relation.iter (fun _ y -> work := !work + Relation.deg_dst s y) r;
  {
    counter = "light.probes";
    work = !work;
    run = (fun () -> ignore (Sys.opaque_identity (Jp_wcoj.Expand.project ~r ~s ())));
  }

(* The word constants run the engine's one tile over a p×p operand pair,
   as every product up to the default cap is.  Their divisors are the
   word counts the kernels record: a payload word per one of A for the
   row-OR, and per cell for the AND+popcount (no row of A is empty at
   this density). *)
let count_probe p =
  let rng = Jp_util.Rng.create 7 in
  let _, a = operand rng p in
  let _, b = operand rng p in
  {
    counter = "mm.count_word_ops";
    work = p * p * Jp_util.Bitset.payload_words p;
    run =
      (fun () -> ignore (Sys.opaque_identity (Tile.count_product (Tile.config ()) a b)));
  }

let bool_probe p =
  let rng = Jp_util.Rng.create 11 in
  let rows, a = operand rng p in
  let _, b = operand rng p in
  let ones = Array.fold_left (fun n row -> n + Array.length row) 0 rows in
  {
    counter = "mm.bool_word_ops";
    work = ones * Jp_util.Bitset.payload_words p;
    run = (fun () -> ignore (Sys.opaque_identity (Tile.mul (Tile.config ()) a b)));
  }

let probe ~quick = function
  | Ti -> ti_probe (if quick then 200_000 else 2_000_000)
  | Count_word -> count_probe (if quick then 96 else 256)
  | Bool_word -> bool_probe (if quick then 96 else 256)

(* The second of two runs: the first pays a fresh process's cold start
   (page faults on new heap, first-use allocations), which a steady
   workload's products do not. *)
let seconds_per_work p =
  p.run ();
  let t0 = Jp_util.Timer.now () in
  p.run ();
  (Jp_util.Timer.now () -. t0) /. float_of_int (max 1 p.work)

let calibrate ?(quick = true) () =
  let n = if quick then 200_000 else 2_000_000 in
  let time c = seconds_per_work (probe ~quick c) in
  {
    ts = measure_ts n;
    tm = measure_tm n;
    ti = time Ti;
    count_word = time Count_word;
    bool_word = time Bool_word;
    cores = Jp_parallel.Pool.available_cores ();
  }

let singleton : machine option Atomic.t = Atomic.make None

let machine () =
  match Atomic.get singleton with
  | Some m -> m
  | None ->
    let m = calibrate () in
    Atomic.set singleton (Some m);
    m

let set_machine m = Atomic.set singleton (Some m)

let load_machine path =
  let module Json = Jp_obs.Json in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match Json.of_string text with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok json -> (
      let field k = Option.bind (Json.member k json) Json.to_float_opt in
      match
        ( field "ts",
          field "tm",
          field "ti",
          field "count_word",
          field "bool_word",
          field "cores" )
      with
      | Some ts, Some tm, Some ti, Some count_word, Some bool_word, Some cores ->
        Ok { ts; tm; ti; count_word; bool_word; cores = int_of_float cores }
      | _ -> Error (path ^ ": missing a machine constant")))

(* The AND+popcount price of the count product: a payload word per
   cell of the inner dimension, split over the cores, plus the
   allocation of the larger operand. *)
let count_product_seconds m ~u ~v ~w ~cores =
  let cores = max 1 (min cores m.cores) in
  let work =
    float_of_int u *. float_of_int w *. (float_of_int v /. 62.0) *. m.count_word
  in
  (work /. float_of_int cores) +. (m.tm *. float_of_int (max (u * v) (v * w)))

(* The row-OR price: each of [nnz] selected bit rows costs its
   selection, and [plane_word] per word written into each of [planes]
   planes of [row_words] words. *)
let or_rows_seconds m ~planes ~row_words ~nnz =
  float_of_int nnz
  *. ((plane_word *. float_of_int planes *. row_words) +. select_words)
  *. m.bool_word

(* The boolean 2-path's heavy part: one plane, the full row of ⌈w/62⌉
   words, no diagonal; plus the v heavy bit rows it allocates, at [tm]
   per 4 words. *)
let row_or_seconds m ~v ~w ~nnz =
  let words = (w + 61) / 62 in
  or_rows_seconds m ~planes:1 ~row_words:(float_of_int words) ~nnz
  +. (m.tm *. float_of_int (v * words) /. 4.0)

type ssj_kernel = Triangle | Planes

(* Plane words one saturated bit row writes, summed over the u heavy x
   rows: row i starts at the word holding column i + 1 of a u-wide row,
   and the last row has no column past it. *)
let upper_row_words u =
  let words = (u + 61) / 62 and total = ref 0 in
  for i = 0 to u - 2 do
    total := !total + words - ((i + 1) / 62)
  done;
  !total

let ssj_seconds m kernel ~c ~u ~v ~nnz =
  let u' = float_of_int u and nnz' = float_of_int nnz in
  match kernel with
  | Triangle ->
    let cells = u' *. (u' -. 1.0) /. 2.0 in
    let inner = float_of_int ((v + 61) / 62) in
    ((cells *. (cell_words +. (cell_word *. inner))) +. (build_words *. nnz'))
    *. m.count_word
  | Planes ->
    let per_row = float_of_int (upper_row_words u) /. Float.max 1.0 u' in
    or_rows_seconds m ~planes:c ~row_words:per_row ~nnz

let ssj_kernel m ~c ~u ~v ~nnz =
  if ssj_seconds m Planes ~c ~u ~v ~nnz < ssj_seconds m Triangle ~c ~u ~v ~nnz
  then Planes
  else Triangle
