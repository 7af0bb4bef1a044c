module Vec = Jp_util.Vec

(* A buffer of ids in native byte order: 16 bits each when every id is
   below 2^16, 32 bits otherwise. *)
type ids = { wide : bool; bytes : Bytes.t }

let narrow_bound = 1 lsl 16

let wide_bound = 1 lsl 31

let get ids i =
  if ids.wide then Int32.to_int (Bytes.get_int32_ne ids.bytes (4 * i))
  else Bytes.get_uint16_ne ids.bytes (2 * i)

(* Row x is ids offsets.(x) .. offsets.(x + 1) - 1 of [data]. *)
type t = { offsets : int array; data : ids }

let src_count t = Array.length t.offsets - 1

let count t = t.offsets.(src_count t)

let row_length t x = t.offsets.(x + 1) - t.offsets.(x)

let row t x =
  let at = t.offsets.(x) in
  Array.init (row_length t x) (fun i -> get t.data (at + i))

let iter_row f t x =
  for i = t.offsets.(x) to t.offsets.(x + 1) - 1 do
    f (get t.data i)
  done

(* Writes [n] ids of [src] as ids [at ..] of [data]; each must be
   below the width's bound. *)
let pack data at src n =
  let outside () = invalid_arg "Pairs: id outside its bound" in
  if data.wide then
    for i = 0 to n - 1 do
      let z = Array.unsafe_get src i in
      if z < 0 || z >= wide_bound then outside ();
      Bytes.set_int32_ne data.bytes (4 * (at + i)) (Int32.of_int z)
    done
  else
    for i = 0 to n - 1 do
      let z = Array.unsafe_get src i in
      if z < 0 || z >= narrow_bound then outside ();
      Bytes.set_uint16_ne data.bytes (2 * (at + i)) z
    done

let create_ids ~bound total =
  if bound > wide_bound then invalid_arg "Pairs: id bound past 2^31";
  let wide = bound > narrow_bound in
  { wide; bytes = Bytes.create ((if wide then 4 else 2) * total) }

(* Output buffers.  A chunk's buffer is scratch: its rows are packed
   into the result and the buffer goes back to the calling domain's
   spares, so the next query writes into storage that has already grown
   instead of regrowing (and discarding) a buffer per query.  A domain
   keeps a few spares, none past [spare_words]. *)
let spares : Vec.t list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let max_spares = 4

let spare_words = 1 lsl 20

let chunk () =
  match Domain.DLS.get spares with
  | v :: rest ->
    Domain.DLS.set spares rest;
    Vec.clear v;
    v
  | [] -> Vec.create ~capacity:1024 ()

let gather ~bound chunks total =
  if Array.fold_left (fun n v -> n + Vec.length v) 0 chunks <> total then
    invalid_arg "Pairs.gather: chunks do not hold the rows";
  let data = create_ids ~bound total in
  ignore
    (Array.fold_left
       (fun at v ->
         pack data at (Vec.reserve v 0) (Vec.length v);
         at + Vec.length v)
       0 chunks);
  Array.iter
    (fun v ->
      let kept = Domain.DLS.get spares in
      if
        List.length kept < max_spares
        && Array.length (Vec.reserve v 0) <= spare_words
        && not (List.memq v kept)
      then Domain.DLS.set spares (v :: kept))
    chunks;
  data

(* Row lengths at [lengths.(x + 1)] become offsets, in place. *)
let offsets_of_lengths lengths =
  for x = 1 to Array.length lengths - 1 do
    lengths.(x) <- lengths.(x) + lengths.(x - 1)
  done;
  lengths

let of_chunks ~lengths ~bound chunks =
  let offsets = offsets_of_lengths lengths in
  { offsets; data = gather ~bound chunks offsets.(Array.length offsets - 1) }

(* One past the largest id of strictly increasing rows: their last. *)
let rows_bound rows =
  Array.fold_left
    (fun b r -> if Array.length r = 0 then b else max b (r.(Array.length r - 1) + 1))
    0 rows

let of_rows_unchecked rows =
  let n = Array.length rows in
  let offsets = Array.make (n + 1) 0 in
  Array.iteri (fun x r -> offsets.(x + 1) <- offsets.(x) + Array.length r) rows;
  let data = create_ids ~bound:(rows_bound rows) offsets.(n) in
  Array.iteri (fun x r -> pack data offsets.(x) r (Array.length r)) rows;
  { offsets; data }

let empty n = { offsets = Array.make (n + 1) 0; data = create_ids ~bound:0 0 }

let mem t x z =
  x >= 0
  && x < src_count t
  &&
  let lo = ref t.offsets.(x) and hi = ref t.offsets.(x + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if get t.data mid < z then lo := mid + 1 else hi := mid
  done;
  !lo < t.offsets.(x + 1) && get t.data !lo = z

let iter f t =
  for x = 0 to src_count t - 1 do
    for i = t.offsets.(x) to t.offsets.(x + 1) - 1 do
      f x (get t.data i)
    done
  done

(* Rows past a result's last one are empty. *)
let bounds t x = if x < src_count t then (t.offsets.(x), t.offsets.(x + 1)) else (0, 0)

let equal a b =
  count a = count b
  &&
  let rec same x =
    x >= max (src_count a) (src_count b)
    ||
    let la, ha = bounds a x and lb, hb = bounds b x in
    ha - la = hb - lb
    &&
    let rec cells i = i >= ha - la || (get a.data (la + i) = get b.data (lb + i) && cells (i + 1)) in
    cells 0 && same (x + 1)
  in
  same 0

let union a b =
  let n = max (src_count a) (src_count b) in
  let lengths = Array.make (n + 1) 0 and out = Vec.create () in
  for x = 0 to n - 1 do
    let i = ref (fst (bounds a x)) and ha = snd (bounds a x) in
    let j = ref (fst (bounds b x)) and hb = snd (bounds b x) in
    let before = Vec.length out in
    while !i < ha || !j < hb do
      if !j >= hb || (!i < ha && get a.data !i < get b.data !j) then begin
        Vec.push out (get a.data !i);
        incr i
      end
      else begin
        let z = get b.data !j in
        if !i < ha && get a.data !i = z then incr i;
        Vec.push out z;
        incr j
      end
    done;
    lengths.(x + 1) <- Vec.length out - before
  done;
  let bound = if a.data.wide || b.data.wide then wide_bound else narrow_bound in
  { offsets = offsets_of_lengths lengths; data = gather ~bound [| out |] (Vec.length out) }
