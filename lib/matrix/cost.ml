type kind = Count | Boolean

(* The SSJ kernel price's fitted multipliers of the machine's word
   constants: least squares on relative error over the 185 counted-ssj
   products of perfbench seeds 1 and 2, each kernel timed alone, then
   scaled so that the pinned constants' count/bool ratio reproduces the
   fitted time ratio (EXPERIMENTS.md, "SSJ planes").  A triangle cell
   pays [cell_words] count words of call, spare-word and store overhead
   beside [cell_word] per payload word of the inner dimension, and its
   one operand build [build_words] per one of A.  A plane product pays
   [plane_word] boolean words per plane word written and [select_words]
   per one of A: both operand builds (A and Aᵀ) and the selection of
   each row. *)
let cell_words = 2.3

let cell_word = 0.5

let build_words = 0.5

let plane_word = 0.53

let select_words = 4.2

let lemma1 ?(omega = 3.0) ~u ~v ~w () =
  let u = float_of_int u and v = float_of_int v and w = float_of_int w in
  let beta = min u (min v w) in
  if beta <= 0.0 then 0.0 else u *. v *. w *. (beta ** (omega -. 3.0))

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

(* TI prices one pre-projection join tuple in the stamp-vector expansion
   (Section 6's inner loop), so the probe replicates it end-to-end:
   adjacency chasing into the engines' row accumulator ([Row_acc]: stamp
   dedup, candidate buffer and the sorted emit).  A plain random-access
   loop underprices this by an order of magnitude and would bias
   Algorithm 3 against the matrix plan. *)
let measure_ti n =
  let rng = Jp_util.Rng.create 0xC0FFEE in
  let nx = max 64 (int_of_float (sqrt (float_of_int n))) in
  (* per x we visit deg_r * deg_s = deg^2 tuples; size deg so the probe
     touches ~n tuples in total *)
  let deg = max 4 (int_of_float (sqrt (float_of_int (n / nx)))) in
  let nz = 4 * deg in
  let adj_r = Array.init nx (fun _ -> Array.init deg (fun _ -> Jp_util.Rng.int rng nz)) in
  let adj_s = Array.init nz (fun _ -> Array.init deg (fun _ -> Jp_util.Rng.int rng nz)) in
  let acc = Jp_util.Row_acc.create nz in
  let tuples = ref 0 in
  let t0 = Jp_util.Timer.now () in
  for a = 0 to nx - 1 do
    Jp_util.Row_acc.start acc;
    Array.iter
      (fun b ->
        let zs = Array.unsafe_get adj_s b in
        tuples := !tuples + Array.length zs;
        Jp_util.Row_acc.add_all acc zs)
      (Array.unsafe_get adj_r a);
    Sys.opaque_identity (Jp_util.Row_acc.emit acc) |> ignore
  done;
  let dt = Jp_util.Timer.now () -. t0 in
  dt /. float_of_int (max 1 !tuples)

let random_boolmat rng ~rows ~cols ~density =
  let m = Boolmat.create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Jp_util.Rng.float rng 1.0 < density then Boolmat.set m i j
    done
  done;
  m

(* The kernel constants time the word loops of [Jp_tile]'s tile bodies
   over one p×p operand pair — one tile, as every product up to the
   default cap is.  This library sits below [jp_tile], so the probes
   copy those loops the way [measure_ti] copies [Row_acc]'s: the count
   body adds one [Bitset.inter_count] per row pair into the result
   cell, the boolean body ORs the B rows each A row selects into that
   result row with [Bitset.union_into]. *)
let measure_count_word p =
  let rng = Jp_util.Rng.create 7 in
  let a = random_boolmat rng ~rows:p ~cols:p ~density:0.6
  and b = random_boolmat rng ~rows:p ~cols:p ~density:0.6 in
  let c = Intmat.create ~rows:p ~cols:p in
  let t0 = Jp_util.Timer.now () in
  for i = 0 to p - 1 do
    let arow = Boolmat.row a i and dst = Intmat.row c i in
    for l = 0 to p - 1 do
      let n = Jp_util.Bitset.inter_count arow (Boolmat.row b l) in
      if n > 0 then dst.(l) <- dst.(l) + n
    done
  done;
  let dt = Jp_util.Timer.now () -. t0 in
  Sys.opaque_identity c |> ignore;
  let words = float_of_int (p * p) *. (float_of_int p /. 62.0) in
  dt /. words

let measure_bool_word p =
  let rng = Jp_util.Rng.create 11 in
  let a = random_boolmat rng ~rows:p ~cols:p ~density:0.6
  and b = random_boolmat rng ~rows:p ~cols:p ~density:0.6 in
  let c = Boolmat.create ~rows:p ~cols:p in
  let t0 = Jp_util.Timer.now () in
  for i = 0 to p - 1 do
    let dst = Boolmat.row c i in
    Boolmat.iter_row a i (fun k ->
        Jp_util.Bitset.union_into ~dst (Boolmat.row b k))
  done;
  let dt = Jp_util.Timer.now () -. t0 in
  Sys.opaque_identity c |> ignore;
  let words = 0.6 *. float_of_int (p * p) *. (float_of_int p /. 62.0) in
  dt /. words

let calibrate ?(quick = true) () =
  let n = if quick then 200_000 else 2_000_000 in
  let p = if quick then 96 else 256 in
  {
    ts = measure_ts n;
    tm = measure_tm n;
    ti = measure_ti n;
    count_word = measure_count_word p;
    bool_word = measure_bool_word p;
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

let construction_seconds m ~u ~v ~w =
  let cells = float_of_int (max (u * v) (v * w)) in
  m.tm *. cells

let mhat m kind ~u ~v ~w ~cores =
  let cores = max 1 (min cores m.cores) in
  let work =
    match kind with
    | Count ->
      float_of_int u *. float_of_int w *. (float_of_int v /. 62.0) *. m.count_word
    | Boolean ->
      float_of_int u *. float_of_int v *. (float_of_int w /. 62.0) *. m.bool_word
  in
  (work /. float_of_int cores) +. construction_seconds m ~u ~v ~w

type ssj_kernel = Triangle | Planes

(* Plane words the upper-masked row-OR writes per selected row, summed
   over the u result rows: row i starts at the word holding column
   i + 1 of a u-wide row, and the last row has no column past it. *)
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
    nnz' *. ((plane_word *. float_of_int c *. per_row) +. select_words)
    *. m.bool_word

let ssj_kernel m ~c ~u ~v ~nnz =
  if ssj_seconds m Planes ~c ~u ~v ~nnz < ssj_seconds m Triangle ~c ~u ~v ~nnz
  then Planes
  else Triangle
