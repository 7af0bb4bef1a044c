(* Same 62-bit words as [Bitset]: every word stays an immediate int. *)
let bits_per_word = 62

(* [emit] scans the bitset when the row's id span, in words, is at most
   this many times its length; past that the scan would mostly read
   empty words and a sort of the candidates is cheaper. *)
let scan_factor = 4

type t = {
  stamps : int array; (* id -> last row that saw it *)
  counts : int array; (* id -> multiplicity in the current row *)
  words : int array; (* bitset over ids, all zero between rows *)
  mutable buf : int array; (* the current row's distinct ids, unsorted *)
  mutable len : int;
  mutable stamp : int;
  mutable lo : int; (* smallest id in buf *)
  mutable hi : int; (* largest id in buf *)
}

let create ?(counts = false) nz =
  if nz < 0 then invalid_arg "Row_acc.create";
  {
    stamps = Array.make nz (-1);
    counts = (if counts then Array.make nz 0 else [||]);
    words = Array.make ((nz / bits_per_word) + 1) 0;
    buf = Array.make 256 0;
    len = 0;
    stamp = -1;
    lo = max_int;
    hi = -1;
  }

let start t =
  t.stamp <- t.stamp + 1;
  t.len <- 0;
  t.lo <- max_int;
  t.hi <- -1

let grow t =
  let buf = Array.make (2 * Array.length t.buf) 0 in
  Array.blit t.buf 0 buf 0 t.len;
  t.buf <- buf

(* Inlined: without the attribute the tight loops below pay a call per
   distinct id. *)
let[@inline] push t z =
  if t.len = Array.length t.buf then grow t;
  Array.unsafe_set t.buf t.len z;
  t.len <- t.len + 1;
  if z < t.lo then t.lo <- z;
  if z > t.hi then t.hi <- z

let[@inline] add t z =
  if t.stamps.(z) <> t.stamp then begin
    Array.unsafe_set t.stamps z t.stamp;
    push t z
  end

let add_all t zs =
  let stamps = t.stamps and stamp = t.stamp in
  for i = 0 to Array.length zs - 1 do
    let z = Array.unsafe_get zs i in
    if stamps.(z) <> stamp then begin
      Array.unsafe_set stamps z stamp;
      push t z
    end
  done

let[@inline] add_count t z k =
  let counts = t.counts in
  if t.stamps.(z) <> t.stamp then begin
    Array.unsafe_set t.stamps z t.stamp;
    counts.(z) <- k;
    push t z
  end
  else counts.(z) <- counts.(z) + k

let add_witnesses t zs =
  let stamps = t.stamps and stamp = t.stamp and counts = t.counts in
  for i = 0 to Array.length zs - 1 do
    let z = Array.unsafe_get zs i in
    if stamps.(z) <> stamp then begin
      Array.unsafe_set stamps z stamp;
      counts.(z) <- 1;
      push t z
    end
    else counts.(z) <- counts.(z) + 1
  done

(* 2 is a primitive root modulo 67, so [2^b mod 67] is distinct for
   every bit position b < 62: one remainder and one lookup turn an
   isolated low bit into its index. *)
let bit_of_residue =
  String.init 67 (fun r ->
      let rec find b =
        if b >= bits_per_word || (1 lsl b) mod 67 = r then b else find (b + 1)
      in
      Char.chr (find 0))

let bit_index low = Char.code (String.unsafe_get bit_of_residue (low mod 67))

(* Sets every candidate's bit, then walks the words from the row's first
   to its last, emitting set bits in order and zeroing each word. *)
let scan_out t =
  let words = t.words and buf = t.buf and n = t.len in
  for i = 0 to n - 1 do
    let z = Array.unsafe_get buf i in
    let w = z / bits_per_word in
    Array.unsafe_set words w
      (Array.unsafe_get words w lor (1 lsl (z - (w * bits_per_word))))
  done;
  let out = Array.make n 0 in
  let k = ref 0 in
  for w = t.lo / bits_per_word to t.hi / bits_per_word do
    let word = ref (Array.unsafe_get words w) in
    if !word <> 0 then begin
      Array.unsafe_set words w 0;
      let base = w * bits_per_word in
      while !word <> 0 do
        let low = !word land - !word in
        Array.unsafe_set out !k (base + bit_index low);
        incr k;
        word := !word lxor low
      done
    end
  done;
  out

let emit t =
  let n = t.len in
  if n = 0 then [||]
  else if (t.hi / bits_per_word) - (t.lo / bits_per_word) < scan_factor * n then
    scan_out t
  else begin
    let out = Array.sub t.buf 0 n in
    Intsort.sort out;
    out
  end

let emit_counts t =
  let zs = emit t in
  let counts = t.counts in
  (zs, Array.map (fun z -> Array.unsafe_get counts z) zs)
