(* Row x's ids are ids offsets.(x) .. offsets.(x + 1) - 1 of [zs],
   each with its multiplicity at the same index of [counts], both packed
   as in {!Pairs}. *)
type t = { offsets : int array; zs : Pairs.ids; counts : Pairs.ids }

(* Multiplicities are bounded by the number of join values, which the
   rows do not record: they take the wide words. *)
let count_bound = 1 lsl 31

let of_chunks ~lengths ~bound zs counts =
  for x = 1 to Array.length lengths - 1 do
    lengths.(x) <- lengths.(x) + lengths.(x - 1)
  done;
  let total = lengths.(Array.length lengths - 1) in
  {
    offsets = lengths;
    zs = Pairs.gather ~bound zs total;
    counts = Pairs.gather ~bound:count_bound counts total;
  }

let of_rows_unchecked rows =
  let n = Array.length rows in
  let lengths = Array.make (n + 1) 0 in
  let zs = Jp_util.Vec.create () and counts = Jp_util.Vec.create () in
  let bound = ref 0 in
  Array.iteri
    (fun x (r, c) ->
      lengths.(x + 1) <- Array.length r;
      Array.iter (fun z -> Jp_util.Vec.push zs z; bound := max !bound (z + 1)) r;
      Array.iter (Jp_util.Vec.push counts) c)
    rows;
  of_chunks ~lengths ~bound:!bound [| zs |] [| counts |]

let src_count t = Array.length t.offsets - 1

let row t x =
  let at = t.offsets.(x) and n = t.offsets.(x + 1) - t.offsets.(x) in
  (Array.init n (fun i -> Pairs.get t.zs (at + i)), Array.init n (fun i -> Pairs.get t.counts (at + i)))

let iter f t =
  for x = 0 to src_count t - 1 do
    for i = t.offsets.(x) to t.offsets.(x + 1) - 1 do
      f x (Pairs.get t.zs i) (Pairs.get t.counts i)
    done
  done
