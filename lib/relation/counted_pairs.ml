type t = { rows : (int array * int array) array; pairs : int }

let pairs_of rows =
  Array.fold_left (fun acc (zs, _) -> acc + Array.length zs) 0 rows

let of_rows_unchecked rows = { rows; pairs = pairs_of rows }

let src_count t = Array.length t.rows

let row t x = t.rows.(x)

let iter f t =
  Array.iteri
    (fun x (zs, counts) ->
      Array.iteri (fun i z -> f x z counts.(i)) zs)
    t.rows
