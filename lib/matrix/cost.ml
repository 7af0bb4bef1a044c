type kind = Count | Boolean

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

let measure_count_word p =
  let rng = Jp_util.Rng.create 7 in
  let a = random_boolmat rng ~rows:p ~cols:p ~density:0.6
  and b = random_boolmat rng ~rows:p ~cols:p ~density:0.6 in
  let t0 = Jp_util.Timer.now () in
  let c = Boolmat.count_product a b in
  let dt = Jp_util.Timer.now () -. t0 in
  Sys.opaque_identity c |> ignore;
  let words = float_of_int (p * p) *. (float_of_int p /. 62.0) in
  dt /. words

let measure_bool_word p =
  let rng = Jp_util.Rng.create 11 in
  let a = random_boolmat rng ~rows:p ~cols:p ~density:0.6
  and b = random_boolmat rng ~rows:p ~cols:p ~density:0.6 in
  let t0 = Jp_util.Timer.now () in
  let c = Boolmat.mul a b in
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
