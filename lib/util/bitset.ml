(* 62 payload bits per word keeps every word operation on an immediate
   native int (63-bit) with one bit to spare, avoiding Int64 boxing. *)
let bits_per_word = 62

type t = { words : int array; width : int }

let payload_words n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make (payload_words n + 1) 0; width = n }

let check t i =
  if i < 0 || i >= t.width then invalid_arg "Bitset: index out of bounds"

let set t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* SWAR popcount specialised to 62 significant bits (the top bit of the
   native int is always 0 here, so 64-bit constants truncated to 63 bits
   are safe). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let count t =
  let c = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    c := !c + popcount (Array.unsafe_get t.words w)
  done;
  !c

let is_empty t =
  let rec go w =
    w >= Array.length t.words || (t.words.(w) = 0 && go (w + 1))
  in
  go 0

let check_widths a b op =
  if a.width <> b.width then invalid_arg ("Bitset." ^ op ^ ": width mismatch")

let union_into ~dst src =
  check_widths dst src "union_into";
  let d = dst.words and s = src.words in
  for w = 0 to Array.length d - 1 do
    Array.unsafe_set d w (Array.unsafe_get d w lor Array.unsafe_get s w)
  done

(* OR [src] into [dst] starting at bit [off], a whole number of words
   in: payload word [w] of [src] lands on word [off / 62 + w] of [dst],
   in bounds because [off + width src <= width dst].  Only payload words
   are written — never the spare trailing word, whose slot in [dst] may
   be the first word of a neighbouring tile that another domain is
   writing concurrently; source bits beyond [width src] are invariantly
   zero. *)
let union_into_at ~dst off src =
  if off < 0 || off + src.width > dst.width || off mod bits_per_word <> 0 then
    invalid_arg "Bitset.union_into_at: offset unaligned or out of bounds";
  let d = dst.words and s = src.words in
  let wi = off / bits_per_word in
  for w = 0 to payload_words src.width - 1 do
    Array.unsafe_set d (wi + w)
      (Array.unsafe_get d (wi + w) lor Array.unsafe_get s w)
  done

let set_mapped t ~lo ids index =
  let scanned = ref 0 and words = t.words and width = t.width in
  for k = 0 to Array.length ids - 1 do
    let j = index.(Array.unsafe_get ids k) in
    if j >= 0 then begin
      incr scanned;
      let i = j - lo in
      if i >= 0 && i < width then begin
        let w = i / bits_per_word in
        Array.unsafe_set words w
          (Array.unsafe_get words w lor (1 lsl (i - (w * bits_per_word))))
      end
    end
  done;
  !scanned

let inter_count a b =
  check_widths a b "inter_count";
  let c = ref 0 in
  for w = 0 to Array.length a.words - 1 do
    c := !c + popcount (Array.unsafe_get a.words w land Array.unsafe_get b.words w)
  done;
  !c

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref (Array.unsafe_get t.words w) in
    let base = w * bits_per_word in
    while !word <> 0 do
      let low = !word land - !word in
      (* log2 of a single set bit via popcount of (low - 1) *)
      let b = popcount (low - 1) in
      f (base + b);
      word := !word land (!word - 1)
    done
  done

let of_sorted_array n positions =
  let t = create n in
  Array.iter (fun i -> set t i) positions;
  t
