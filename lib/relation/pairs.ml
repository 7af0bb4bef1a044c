type t = { rows : int array array; total : int }

let total_of rows =
  Array.fold_left (fun acc r -> acc + Array.length r) 0 rows

let of_rows_unchecked rows = { rows; total = total_of rows }

let empty n = { rows = Array.make n [||]; total = 0 }

let src_count t = Array.length t.rows

let count t = t.total

let row t x = t.rows.(x)

let mem t x z = x < Array.length t.rows && Jp_util.Sorted.mem t.rows.(x) z

let iter f t =
  Array.iteri (fun x r -> Array.iter (fun z -> f x z) r) t.rows

let equal a b =
  let na = Array.length a.rows and nb = Array.length b.rows in
  let n = max na nb in
  a.total = b.total
  &&
  let rec go x =
    x >= n
    ||
    let ra = if x < na then a.rows.(x) else [||]
    and rb = if x < nb then b.rows.(x) else [||] in
    ra = rb && go (x + 1)
  in
  go 0

let union a b =
  let n = max (Array.length a.rows) (Array.length b.rows) in
  let rows =
    Array.init n (fun x ->
        let ra = if x < Array.length a.rows then a.rows.(x) else [||]
        and rb = if x < Array.length b.rows then b.rows.(x) else [||] in
        if Array.length ra = 0 then rb
        else if Array.length rb = 0 then ra
        else Jp_util.Sorted.union ra rb)
  in
  of_rows_unchecked rows
