(* Same 62-bit words as [Bitset]: every word stays an immediate int. *)
let bits_per_word = 62

(* [emit] scans the bitset when the row's id span, in words, is at most
   this many times its length; past that the scan would mostly read
   empty words and a sort of the candidates is cheaper. *)
let scan_factor = 4

(* What the current row keeps outside the stamps.  A split row (one
   x of a heavy product) owns a column space over the product's heavy z:
   [Bits] rows hold each column as a bit of [cols] ([stride] words, the
   set columns counted when read), [Counts] rows hold
   its count — or, when [planes > 0], hold it in that many thermometer
   planes, one [stride]-word bitset per plane laid end to end in [cols]
   (plane j: "count >= j + 1").  Only ids without a column go through
   the stamps, so the two halves are disjoint.  A [Plain] row stamps
   every id. *)
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
  mutable held : int; (* counting split rows: columns set *)
  mutable planes : int; (* counting split rows: planes, or 0 for counts *)
  mutable stride : int; (* bit rows: column words; plane rows: words per plane *)
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
    planes = 0;
    stride = 0;
  }

(* Accumulators handed back after a call, for the calling domain's next
   call: the stamps, bitset and scratch of an accumulator are as good
   for the next query as for the next row.  A domain keeps a few, none
   over more than [spare_ids] ids, so a huge domain's vectors are not
   held after its query. *)
let spares : t list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let max_spares = 4

let spare_ids = 1 lsl 20

let borrow ?(counts = false) nz =
  let fits t = Array.length t.stamps >= nz && ((not counts) || Array.length t.counts >= nz) in
  let kept = Domain.DLS.get spares in
  match List.find_opt fits kept with
  | Some t ->
    Domain.DLS.set spares (List.filter (fun u -> u != t) kept);
    t
  | None -> create ~counts nz

let release t =
  if Array.length t.stamps <= spare_ids then begin
    let kept = List.filter (fun u -> u != t) (Domain.DLS.get spares) in
    Domain.DLS.set spares (List.filteri (fun i _ -> i < max_spares) (t :: kept))
  end

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

let start_split t ~index ~heavy =
  let stride = Bitset.payload_words (Array.length heavy) in
  split t Bits ~index ~heavy ~need:stride;
  Array.fill t.cols 0 stride 0;
  t.stride <- stride

(* Inlined: a heavy x ORs one row per heavy y, and the call would cost
   about as much as a row of a few words. *)
let[@inline] or_words t words off n =
  (match t.mode with
  | Bits -> ()
  | Plain | Counts -> invalid_arg "Row_acc.or_words: not a boolean split row");
  if n < 0 || n > t.stride || off < 0 || off > Array.length words - n then
    invalid_arg "Row_acc.or_words: words out of range";
  let cols = t.cols in
  for w = 0 to n - 1 do
    Array.unsafe_set cols w (Array.unsafe_get cols w lor Array.unsafe_get words (off + w))
  done

let start_split_counts t ~index ~heavy row =
  let w = Array.length heavy in
  let first = w - Array.length row in
  if first < 0 then invalid_arg "Row_acc.start_split_counts: row wider than heavy";
  split t Counts ~index ~heavy ~need:w;
  t.planes <- 0;
  let cols = t.cols and held = ref 0 in
  for k = 0 to Array.length row - 1 do
    let c = Array.unsafe_get row k in
    Array.unsafe_set cols (first + k) c;
    if c <> 0 then incr held
  done;
  t.first <- first;
  t.held <- !held;
  !held

let start_planes t ~index ~heavy ~first k =
  let w = Array.length heavy in
  if k < 1 || first < 0 || first > w then
    invalid_arg "Row_acc.start_planes: no planes, or first out of range";
  let stride = Bitset.payload_words w in
  split t Counts ~index ~heavy ~need:(k * stride);
  Array.fill t.cols 0 (k * stride) 0;
  t.first <- first;
  t.planes <- k;
  t.stride <- stride

(* Inlined, as [or_words]: a heavy x saturates one row per heavy y.
   Descending planes read each plane below before it is updated, so
   plane j gains exactly the columns that were at j and are in the row;
   two planes, the usual threshold, get a loop of their own. *)
let[@inline] saturate_words t words off =
  (match t.mode with
  | Counts when t.planes > 0 -> ()
  | Plain | Bits | Counts -> invalid_arg "Row_acc.saturate_words: not a plane row");
  let stride = t.stride in
  if off < 0 || off > Array.length words - stride then
    invalid_arg "Row_acc.saturate_words: words out of range";
  let cols = t.cols and from = t.first / bits_per_word in
  match t.planes with
  | 2 ->
    for w = from to stride - 1 do
      let x = Array.unsafe_get words (off + w) and y = Array.unsafe_get cols w in
      Array.unsafe_set cols (stride + w) (Array.unsafe_get cols (stride + w) lor (y land x));
      Array.unsafe_set cols w (y lor x)
    done
  | k ->
    for w = from to stride - 1 do
      let x = Array.unsafe_get words (off + w) in
      if x <> 0 then begin
        for j = k - 1 downto 1 do
          let d = (j * stride) + w in
          Array.unsafe_set cols d
            (Array.unsafe_get cols d lor (Array.unsafe_get cols (d - stride) land x))
        done;
        Array.unsafe_set cols w (Array.unsafe_get cols w lor x)
      end
    done

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

let[@inline] stamp_list t zs =
  let stamps = t.stamps and stamp = t.stamp in
  for i = 0 to Array.length zs - 1 do
    let z = Array.unsafe_get zs i in
    if stamps.(z) <> stamp then begin
      Array.unsafe_set stamps z stamp;
      push t z
    end
  done

let add_light t zs = stamp_list t zs

(* A [Bits] row: an id with a column sets its bit, the rest are
   stamped. *)
let add_split t zs =
  let stamps = t.stamps and stamp = t.stamp in
  let index = t.index and cols = t.cols in
  for i = 0 to Array.length zs - 1 do
    let z = Array.unsafe_get zs i in
    let l = index.(z) in
    if l >= 0 then begin
      let w = l / bits_per_word in
      Array.unsafe_set cols w
        (Array.unsafe_get cols w lor (1 lsl (l - (w * bits_per_word))))
    end
    else if stamps.(z) <> stamp then begin
      Array.unsafe_set stamps z stamp;
      push t z
    end
  done

let add_all t zs =
  match t.mode with
  | Plain -> stamp_list t zs
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

(* A plane row: an id with a column adds one to it, saturating at
   the number of planes — each plane from the top gains the bit where
   the plane below has it — and the rest are stamped.  A column is
   newly held when the first plane lacks it. *)
let add_witnesses_planes t zs from =
  let stamps = t.stamps and stamp = t.stamp and counts = t.counts in
  let index = t.index and cols = t.cols and first = t.first and held = ref t.held in
  let stride = t.stride and top = t.planes - 1 in
  for i = max 0 from to Array.length zs - 1 do
    let z = Array.unsafe_get zs i in
    let l = index.(z) in
    if l >= 0 then begin
      if l < first then invalid_arg "Row_acc.add_witnesses_from: column not held";
      let w = l / bits_per_word in
      let bit = 1 lsl (l - (w * bits_per_word)) in
      for j = top downto 1 do
        let d = (j * stride) + w in
        Array.unsafe_set cols d
          (Array.unsafe_get cols d lor (Array.unsafe_get cols (d - stride) land bit))
      done;
      let x = Array.unsafe_get cols w in
      if x land bit = 0 then begin
        incr held;
        Array.unsafe_set cols w (x lor bit)
      end
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
  | Counts ->
    if t.planes > 0 then add_witnesses_planes t zs from
    else add_witnesses_split t zs from
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

(* The set columns of the [stride] words of [cols] from [at] on. *)
let bits_held t at =
  let n = ref 0 in
  for w = at to at + t.stride - 1 do
    n := !n + Bitset.popcount (Array.unsafe_get t.cols w)
  done;
  !n

let close_planes t =
  (match t.mode with
  | Counts when t.planes > 0 -> ()
  | Plain | Bits | Counts -> invalid_arg "Row_acc.close_planes: not a plane row");
  let w = t.first / bits_per_word and b = t.first mod bits_per_word in
  if b > 0 then begin
    let keep = lnot ((1 lsl b) - 1) in
    for j = 0 to t.planes - 1 do
      let d = (j * t.stride) + w in
      Array.unsafe_set t.cols d (Array.unsafe_get t.cols d land keep)
    done
  end;
  t.held <- bits_held t 0;
  t.held

let columns t = match t.mode with Bits -> bits_held t 0 | Plain | Counts -> t.held

let size t = t.len + columns t

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
   to its last, writing set bits in order to [dst] from [pos] on and
   zeroing each word.  [dst] may be [t.buf] itself (at 0): every
   candidate is read before the first write. *)
let scan_into t dst pos =
  let words = t.words and buf = t.buf and n = t.len in
  for i = 0 to n - 1 do
    let z = Array.unsafe_get buf i in
    let w = z / bits_per_word in
    Array.unsafe_set words w
      (Array.unsafe_get words w lor (1 lsl (z - (w * bits_per_word))))
  done;
  let k = ref pos in
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
    if dense t then scan_into t t.buf 0 else Intsort.sort_sub t.buf ~lo:0 ~hi:t.len

(* The row of a [Bits] split, written to [out] from [pos] on: the [n]
   set columns of the bitset at word [at] of [cols], read in order
   through [heavy] (ascending), merged with the sorted stamped ids.  The
   halves are disjoint, so the merge only interleaves.  Returns the
   row's length. *)
let emit_bits t ~at ~n out pos =
  sort_buf t;
  let nl = t.len and buf = t.buf and heavy = t.heavy and cols = t.cols in
  let j = ref 0 and k = ref pos in
  for w = 0 to Bitset.payload_words (Array.length heavy) - 1 do
    let word = ref (Array.unsafe_get cols (at + w)) in
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
  nl + n

(* A [Plain] row written to [out] from [pos] on: its stamped ids
   scanned out of the bitset (dense rows) or copied and sorted in place.
   Returns the row's length. *)
let write_plain t out pos =
  let n = t.len in
  if n > 0 then
    if dense t then scan_into t out pos
    else begin
      Array.blit t.buf 0 out pos n;
      Intsort.sort_sub out ~lo:pos ~hi:(pos + n)
    end;
  n

(* Rows of one or two lists take no accumulator: the list itself, or
   one linear merge of both. *)
let one_list_into out zs =
  let n = Array.length zs in
  Array.blit zs 0 (Vec.reserve out n) (Vec.length out) n;
  Vec.advance out n;
  n

let two_lists_into out a b =
  let dst = Vec.reserve out (Array.length a + Array.length b) in
  let n = Sorted.union_into a b dst (Vec.length out) in
  Vec.advance out n;
  n

let write t out pos =
  match t.mode with
  | Bits -> emit_bits t ~at:0 ~n:(bits_held t 0) out pos
  | Counts -> invalid_arg "Row_acc.emit: counting split row"
  | Plain -> write_plain t out pos

let emit_into t v =
  let out = Vec.reserve v (size t) in
  let n = write t out (Vec.length v) in
  Vec.advance v n;
  n

let emit t =
  let out = Array.make (size t) 0 in
  ignore (write t out 0);
  out

(* The row of a [Counts] split, written to [zs] and [ks] from [pos] on:
   held columns with a non-zero count merged with the sorted stamped ids
   and their counts. *)
let emit_counts_split t zs ks pos =
  sort_buf t;
  let nl = t.len and buf = t.buf and counts = t.counts in
  let heavy = t.heavy and cols = t.cols in
  let j = ref 0 and k = ref pos in
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
  done

let emit_counts_into t zv kv =
  let n = size t in
  let zs = Vec.reserve zv n and ks = Vec.reserve kv n in
  let pos = Vec.length zv and kpos = Vec.length kv in
  let n =
    match t.mode with
    | Counts ->
      if t.planes > 0 then invalid_arg "Row_acc.emit_counts_into: saturated split row";
      emit_counts_split t zs ks pos;
      n
    | Bits -> invalid_arg "Row_acc.emit_counts_into: boolean split row"
    | Plain ->
      let n = write_plain t zs pos in
      let counts = t.counts in
      for i = 0 to n - 1 do
        Array.unsafe_set ks (kpos + i)
          (Array.unsafe_get counts (Array.unsafe_get zs (pos + i)))
      done;
      n
  in
  Vec.advance zv n;
  Vec.advance kv n;
  n

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
let emit_ge_split t c out pos =
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
  let j = ref 0 and k = ref pos in
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
  nl + !m - first

(* A plane split at threshold [c]: the held columns with at least
   [c] witnesses are exactly plane c − 1's bits, emitted as a [Bits]
   row's, after the stamped ids are filtered. *)
let emit_ge_planes t c out pos =
  let c = max 1 c in
  if c > t.planes then invalid_arg "Row_acc.emit_ge_into: threshold above the planes";
  filter_ge t c;
  let at = (c - 1) * t.stride in
  emit_bits t ~at ~n:(bits_held t at) out pos

let emit_ge_into t c v =
  let out = Vec.reserve v (size t) in
  let pos = Vec.length v in
  let n =
    match t.mode with
    | Counts ->
      if t.planes > 0 then emit_ge_planes t c out pos else emit_ge_split t c out pos
    | Bits -> invalid_arg "Row_acc.emit_ge_into: boolean split row"
    | Plain ->
      filter_ge t c;
      write_plain t out pos
  in
  Vec.advance v n;
  n
