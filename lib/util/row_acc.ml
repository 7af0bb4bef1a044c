(* Same 62-bit words as [Bitset]: every word stays an immediate int. *)
let bits_per_word = 62

(* [emit] scans the bitset when the row's id span, in words, is at most
   this many times its length; past that the scan would mostly read
   empty words and a sort of the candidates is cheaper. *)
let scan_factor = 4

(* What the current row keeps outside the stamps.  A split row (one
   x of a heavy product) owns a column space over the product's heavy z:
   [Bits] rows hold each column as a bit of [cols], [Counts] rows hold
   its count.  Only ids without a column go through the stamps, so the
   two halves are disjoint. *)
type mode = Plain | Bits | Counts

type t = {
  stamps : int array; (* id -> last row that saw it *)
  counts : int array; (* id -> multiplicity in the current row *)
  words : int array; (* bitset over ids, all zero between rows *)
  mutable buf : int array; (* the current row's distinct ids, unsorted *)
  mutable len : int;
  mutable stamp : int;
  mutable lo : int; (* smallest id in buf *)
  mutable hi : int; (* largest id in buf *)
  mutable mode : mode;
  mutable index : int array; (* split rows: id -> column, or -1 *)
  mutable heavy : int array; (* split rows: column -> id, ascending *)
  mutable cols : int array; (* split rows: column bit words, or counts *)
  mutable first : int; (* counting split rows: first column held *)
  mutable held : int; (* split rows: columns set *)
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
    mode = Plain;
    index = [||];
    heavy = [||];
    cols = [||];
    first = 0;
    held = 0;
  }

let start t =
  t.stamp <- t.stamp + 1;
  t.len <- 0;
  t.lo <- max_int;
  t.hi <- -1;
  t.mode <- Plain;
  t.held <- 0

let split t mode ~index ~heavy ~need =
  start t;
  if Array.length t.cols < need then t.cols <- Array.make need 0;
  t.mode <- mode;
  t.index <- index;
  t.heavy <- heavy

let start_split t ~index ~heavy row =
  split t Bits ~index ~heavy
    ~need:(Bitset.payload_words (Array.length heavy) + 1);
  t.held <- Bitset.blit_count row t.cols;
  t.held

let start_split_counts t ~index ~heavy row =
  let w = Array.length heavy in
  let first = w - Array.length row in
  if first < 0 then invalid_arg "Row_acc.start_split_counts: row wider than heavy";
  split t Counts ~index ~heavy ~need:w;
  let cols = t.cols and held = ref 0 in
  for k = 0 to Array.length row - 1 do
    let c = Array.unsafe_get row k in
    Array.unsafe_set cols (first + k) c;
    if c <> 0 then incr held
  done;
  t.first <- first;
  t.held <- !held;
  !held

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

(* Inlined into [add_all], so a plain row (every [Expand] row) pays one
   mode test per list and no extra call. *)
let[@inline] add_light t zs =
  let stamps = t.stamps and stamp = t.stamp in
  for i = 0 to Array.length zs - 1 do
    let z = Array.unsafe_get zs i in
    if stamps.(z) <> stamp then begin
      Array.unsafe_set stamps z stamp;
      push t z
    end
  done

(* A [Bits] row: an id with a column sets its bit, the rest are
   stamped. *)
let add_split t zs =
  let stamps = t.stamps and stamp = t.stamp in
  let index = t.index and cols = t.cols and held = ref t.held in
  for i = 0 to Array.length zs - 1 do
    let z = Array.unsafe_get zs i in
    let l = index.(z) in
    if l >= 0 then begin
      let w = l / bits_per_word in
      let bit = 1 lsl (l - (w * bits_per_word)) in
      let x = Array.unsafe_get cols w in
      if x land bit = 0 then begin
        Array.unsafe_set cols w (x lor bit);
        incr held
      end
    end
    else if stamps.(z) <> stamp then begin
      Array.unsafe_set stamps z stamp;
      push t z
    end
  done;
  t.held <- !held

let add_all t zs =
  match t.mode with
  | Plain -> add_light t zs
  | Bits -> add_split t zs
  | Counts -> invalid_arg "Row_acc.add_all: counting split row"

(* A [Counts] row: an id with a column adds to its count, the rest are
   stamped.  A column below [first] is not held: only a caller that
   breaks {!start_split_counts}' contract reaches one. *)
let add_witnesses_split t zs from =
  let stamps = t.stamps and stamp = t.stamp and counts = t.counts in
  let index = t.index and cols = t.cols and first = t.first and held = ref t.held in
  for i = max 0 from to Array.length zs - 1 do
    let z = Array.unsafe_get zs i in
    let l = index.(z) in
    if l >= 0 then begin
      if l < first then invalid_arg "Row_acc.add_witnesses_from: column not held";
      let c = Array.unsafe_get cols l in
      if c = 0 then incr held;
      Array.unsafe_set cols l (c + 1)
    end
    else if stamps.(z) <> stamp then begin
      Array.unsafe_set stamps z stamp;
      counts.(z) <- 1;
      push t z
    end
    else counts.(z) <- counts.(z) + 1
  done;
  t.held <- !held

let add_witnesses_from t zs from =
  match t.mode with
  | Counts -> add_witnesses_split t zs from
  | Bits -> invalid_arg "Row_acc.add_witnesses_from: boolean split row"
  | Plain ->
    let stamps = t.stamps and stamp = t.stamp and counts = t.counts in
    for i = max 0 from to Array.length zs - 1 do
      let z = Array.unsafe_get zs i in
      if stamps.(z) <> stamp then begin
        Array.unsafe_set stamps z stamp;
        counts.(z) <- 1;
        push t z
      end
      else counts.(z) <- counts.(z) + 1
    done

let add_witnesses t zs = add_witnesses_from t zs 0

let size t = t.len + t.held

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
   to its last, writing set bits in order to [dst] and zeroing each word.
   [dst] may be [t.buf] itself: every candidate is read before the first
   write. *)
let scan_into t dst =
  let words = t.words and buf = t.buf and n = t.len in
  for i = 0 to n - 1 do
    let z = Array.unsafe_get buf i in
    let w = z / bits_per_word in
    Array.unsafe_set words w
      (Array.unsafe_get words w lor (1 lsl (z - (w * bits_per_word))))
  done;
  let k = ref 0 in
  for w = t.lo / bits_per_word to t.hi / bits_per_word do
    let word = ref (Array.unsafe_get words w) in
    if !word <> 0 then begin
      Array.unsafe_set words w 0;
      let base = w * bits_per_word in
      while !word <> 0 do
        let low = !word land - !word in
        Array.unsafe_set dst !k (base + bit_index low);
        incr k;
        word := !word lxor low
      done
    end
  done

(* Scanning beats sorting when the row's id span, in words, is small
   against its length. *)
let dense t =
  (t.hi / bits_per_word) - (t.lo / bits_per_word) < scan_factor * t.len

(* Sorts the stamped ids in place: buf.(0 .. len - 1) ascending. *)
let sort_buf t =
  if t.len > 1 then
    if dense t then scan_into t t.buf else Intsort.sort_sub t.buf ~lo:0 ~hi:t.len

(* The row of a [Bits] split: the set columns, read in order through
   [heavy] (ascending), merged with the sorted stamped ids.  The halves
   are disjoint, so the merge only interleaves. *)
let emit_bits t =
  sort_buf t;
  let nl = t.len and buf = t.buf and heavy = t.heavy and cols = t.cols in
  let out = Array.make (nl + t.held) 0 in
  let j = ref 0 and k = ref 0 in
  for w = 0 to Bitset.payload_words (Array.length heavy) - 1 do
    let word = ref (Array.unsafe_get cols w) in
    let base = w * bits_per_word in
    while !word <> 0 do
      let low = !word land - !word in
      let z = Array.unsafe_get heavy (base + bit_index low) in
      while !j < nl && Array.unsafe_get buf !j < z do
        Array.unsafe_set out !k (Array.unsafe_get buf !j);
        incr k;
        incr j
      done;
      Array.unsafe_set out !k z;
      incr k;
      word := !word lxor low
    done
  done;
  Array.blit buf !j out !k (nl - !j);
  out

let emit t =
  match t.mode with
  | Bits -> emit_bits t
  | Counts -> invalid_arg "Row_acc.emit: counting split row"
  | Plain ->
    let n = t.len in
    if n = 0 then [||]
    else if dense t then begin
      let out = Array.make n 0 in
      scan_into t out;
      out
    end
    else begin
      let out = Array.sub t.buf 0 n in
      Intsort.sort out;
      out
    end

(* The row of a [Counts] split, as [(zs, counts)]: held columns with a
   non-zero count merged with the sorted stamped ids and their counts. *)
let emit_counts_split t =
  sort_buf t;
  let nl = t.len and buf = t.buf and counts = t.counts in
  let heavy = t.heavy and cols = t.cols in
  let n = nl + t.held in
  let zs = Array.make n 0 and ks = Array.make n 0 in
  let j = ref 0 and k = ref 0 in
  for l = t.first to Array.length heavy - 1 do
    let c = Array.unsafe_get cols l in
    if c <> 0 then begin
      let z = Array.unsafe_get heavy l in
      while !j < nl && Array.unsafe_get buf !j < z do
        let y = Array.unsafe_get buf !j in
        Array.unsafe_set zs !k y;
        Array.unsafe_set ks !k (Array.unsafe_get counts y);
        incr k;
        incr j
      done;
      Array.unsafe_set zs !k z;
      Array.unsafe_set ks !k c;
      incr k
    end
  done;
  for i = !j to nl - 1 do
    let y = Array.unsafe_get buf i in
    Array.unsafe_set zs (!k + i - !j) y;
    Array.unsafe_set ks (!k + i - !j) (Array.unsafe_get counts y)
  done;
  (zs, ks)

let emit_counts t =
  match t.mode with
  | Counts -> emit_counts_split t
  | Bits -> invalid_arg "Row_acc.emit_counts: boolean split row"
  | Plain ->
    let zs = emit t in
    let counts = t.counts in
    (zs, Array.map (fun z -> Array.unsafe_get counts z) zs)

(* Keeps the stamped candidates with at least [c] witnesses, in place. *)
let filter_ge t c =
  let buf = t.buf and counts = t.counts in
  let n = ref 0 in
  t.lo <- max_int;
  t.hi <- -1;
  for i = 0 to t.len - 1 do
    let z = Array.unsafe_get buf i in
    if Array.unsafe_get counts z >= c then begin
      Array.unsafe_set buf !n z;
      incr n;
      if z < t.lo then t.lo <- z;
      if z > t.hi then t.hi <- z
    end
  done;
  t.len <- !n

(* A [Counts] split at threshold [c]: the ids of the held columns with
   at least [c] witnesses are packed, in order, over [cols.(first ..)]
   (each write lands on a column already read), then merged with the
   filtered, sorted stamped ids. *)
let emit_ge_split t c =
  (* an unset column is no id of the row, whatever the threshold *)
  let c = max 1 c in
  filter_ge t c;
  sort_buf t;
  let heavy = t.heavy and cols = t.cols and first = t.first in
  let m = ref first in
  for l = first to Array.length heavy - 1 do
    if Array.unsafe_get cols l >= c then begin
      Array.unsafe_set cols !m (Array.unsafe_get heavy l);
      incr m
    end
  done;
  let nl = t.len and buf = t.buf in
  let out = Array.make (nl + !m - first) 0 in
  let j = ref 0 and k = ref 0 in
  for h = first to !m - 1 do
    let z = Array.unsafe_get cols h in
    while !j < nl && Array.unsafe_get buf !j < z do
      Array.unsafe_set out !k (Array.unsafe_get buf !j);
      incr k;
      incr j
    done;
    Array.unsafe_set out !k z;
    incr k
  done;
  Array.blit buf !j out !k (nl - !j);
  out

let emit_ge t c =
  match t.mode with
  | Counts -> emit_ge_split t c
  | Bits -> invalid_arg "Row_acc.emit_ge: boolean split row"
  | Plain ->
    filter_ge t c;
    emit t
