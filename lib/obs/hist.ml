(* Fixed base-√2 geometric bucket ladder starting at 1 µs: 64 finite
   buckets span ~1e-6 s .. ~3e3 s, and everything above lands in the
   overflow bucket.  The bounds are computed once, identically in every
   process, so bucket counts, merges and quantile reads are
   reproducible — only the observed wall-clock values vary. *)
let n_finite = 64

let bounds =
  let b = Array.make n_finite 1e-6 in
  let sqrt2 = Float.sqrt 2.0 in
  for i = 1 to n_finite - 1 do
    b.(i) <- b.(i - 1) *. sqrt2
  done;
  b

type t = {
  counts : int array; (* n_finite + 1; last = overflow *)
  mutable total : int;
  mutable vsum : float;
  mutable vmax : float;
}

let create () =
  {
    counts = Array.make (n_finite + 1) 0;
    total = 0;
    vsum = 0.0;
    vmax = Float.neg_infinity;
  }

(* First bucket whose upper bound is >= v (binary search on the fixed
   bounds); NaN and anything above the top bound go to overflow. *)
let bucket_of v =
  if not (v <= bounds.(n_finite - 1)) then n_finite
  else begin
    let lo = ref 0 and hi = ref (n_finite - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe h v =
  let i = bucket_of v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.total <- h.total + 1;
  h.vsum <- h.vsum +. v;
  if v > h.vmax then h.vmax <- v

let count h = h.total

let sum h = h.vsum

let max_value h = if h.total = 0 then Float.nan else h.vmax

let quantile h q =
  if h.total = 0 then Float.nan
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.total))) in
    let i = ref 0 in
    let acc = ref h.counts.(0) in
    while !acc < rank do
      incr i;
      acc := !acc + h.counts.(!i)
    done;
    (* Clamp to the tracked maximum: the bucket upper bound can exceed
       every sample (p99 above max reads wrong), and min keeps both
       error bounds — vmax >= the rank's sample value. *)
    if !i = n_finite then h.vmax else Float.min bounds.(!i) h.vmax
  end

let buckets h =
  List.init (n_finite + 1) (fun i ->
      ((if i = n_finite then Float.infinity else bounds.(i)), h.counts.(i)))

let merge_into ~into src =
  for i = 0 to n_finite do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  into.total <- into.total + src.total;
  into.vsum <- into.vsum +. src.vsum;
  if src.vmax > into.vmax then into.vmax <- src.vmax

let copy h =
  { counts = Array.copy h.counts; total = h.total; vsum = h.vsum; vmax = h.vmax }

let clear h =
  Array.fill h.counts 0 (n_finite + 1) 0;
  h.total <- 0;
  h.vsum <- 0.0;
  h.vmax <- Float.neg_infinity
