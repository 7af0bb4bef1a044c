let bits_needed dim =
  let rec go b = if 1 lsl b >= dim then b else go (b + 1) in
  if dim <= 1 then 1 else go 1

let packable ~dims =
  Array.fold_left (fun acc d -> acc + bits_needed d) 0 dims <= 62

type packed = {
  shifts : int array; (* bit offset of each component *)
  masks : int array;
  sorted : int array; (* distinct packed tuples, ascending *)
}

type t =
  | Packed of int (* arity *) * packed
  | Hashed of int * (int array, unit) Hashtbl.t

let count = function
  | Packed (_, p) -> Array.length p.sorted
  | Hashed (_, h) -> Hashtbl.length h

let layout dims =
  let k = Array.length dims in
  let shifts = Array.make k 0 and masks = Array.make k 0 in
  let off = ref 0 in
  for i = 0 to k - 1 do
    let b = bits_needed dims.(i) in
    shifts.(i) <- !off;
    masks.(i) <- (1 lsl b) - 1;
    off := !off + b
  done;
  (shifts, masks)

let pack shifts tuple =
  let key = ref 0 in
  Array.iteri (fun i v -> key := !key lor (v lsl shifts.(i))) tuple;
  !key

let unpack p key tuple =
  Array.iteri
    (fun i shift -> tuple.(i) <- (key lsr shift) land p.masks.(i))
    p.shifts

let iter f t =
  match t with
  | Packed (k, p) ->
    let buf = Array.make k 0 in
    Array.iter
      (fun key ->
        unpack p key buf;
        f buf)
      p.sorted
  | Hashed (_, h) -> Hashtbl.iter (fun tuple () -> f tuple) h

type builder =
  | Bpacked of int * int array (* shifts *) * int array (* masks *) * Jp_util.Vec.t
  | Bhashed of int * (int array, unit) Hashtbl.t

let create_builder ~arity ~dims =
  if Array.length dims <> arity then invalid_arg "Tuples.create_builder";
  if packable ~dims then begin
    let shifts, masks = layout dims in
    Bpacked (arity, shifts, masks, Jp_util.Vec.create ())
  end
  else Bhashed (arity, Hashtbl.create 1024)

let add b tuple =
  match b with
  | Bpacked (k, shifts, _, vec) ->
    if Array.length tuple <> k then invalid_arg "Tuples.add: arity mismatch";
    Jp_util.Vec.push vec (pack shifts tuple)
  | Bhashed (k, h) ->
    if Array.length tuple <> k then invalid_arg "Tuples.add: arity mismatch";
    if not (Hashtbl.mem h tuple) then Hashtbl.replace h (Array.copy tuple) ()

let build = function
  | Bpacked (k, shifts, masks, vec) ->
    Jp_util.Vec.sort_dedup vec;
    Packed (k, { shifts; masks; sorted = Jp_util.Vec.to_array vec })
  | Bhashed (k, h) -> Hashed (k, h)
