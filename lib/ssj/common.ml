module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs

let iter_c_subsets elems ~c f =
  let n = Array.length elems in
  if c >= 1 && c <= n then begin
    let chosen = Array.make c 0 in
    let rec go start depth =
      if depth = c then f (Array.to_list chosen)
      else
        for i = start to n - (c - depth) do
          chosen.(depth) <- elems.(i);
          go (i + 1) (depth + 1)
        done
    in
    go 0 0
  end

let overlap r a b =
  Jp_util.Sorted.intersect_count (Relation.adj_src r a) (Relation.adj_src r b)

let binom_capped n k ~cap =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    (try
       for i = 1 to k do
         acc := !acc * (n - k + i) / i;
         if !acc >= cap then begin
           acc := cap;
           raise Exit
         end
       done
     with Exit -> ());
    !acc
  end
