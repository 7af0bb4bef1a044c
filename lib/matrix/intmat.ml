type t = { data : int array array; rows : int; cols : int }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Intmat.create";
  { data = Array.init rows (fun _ -> Array.make cols 0); rows; cols }

let of_arrays data =
  let rows = Array.length data in
  let cols = if rows = 0 then 0 else Array.length data.(0) in
  Array.iter (fun r -> if Array.length r <> cols then invalid_arg "Intmat.of_arrays: ragged") data;
  { data; rows; cols }

let get m i j = m.data.(i).(j)

let set m i j x = m.data.(i).(j) <- x

let row m i = m.data.(i)

let dims m = (m.rows, m.cols)

let block = 64

let mul_rows a b c lo hi =
  let n = a.cols and w = b.cols in
  for k0 = 0 to (n - 1) / block do
    let kmin = k0 * block and kmax = min n (k0 * block + block) in
    for i = lo to hi - 1 do
      let arow = Array.unsafe_get a.data i in
      let crow = Array.unsafe_get c.data i in
      for k = kmin to kmax - 1 do
        let aik = Array.unsafe_get arow k in
        if aik <> 0 then begin
          let brow = Array.unsafe_get b.data k in
          if aik = 1 then
            for j = 0 to w - 1 do
              Array.unsafe_set crow j (Array.unsafe_get crow j + Array.unsafe_get brow j)
            done
          else
            for j = 0 to w - 1 do
              Array.unsafe_set crow j (Array.unsafe_get crow j + (aik * Array.unsafe_get brow j))
            done
        end
      done
    done
  done

let mul ?(domains = 1) a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Intmat.mul: dimension mismatch (%dx%d . %dx%d)" a.rows
         a.cols b.rows b.cols);
  let c = create ~rows:a.rows ~cols:b.cols in
  if domains <= 1 then mul_rows a b c 0 a.rows
  else
    Jp_parallel.Pool.parallel_for_ranges ~domains ~lo:0 ~hi:a.rows (fun lo hi ->
        mul_rows a b c lo hi);
  c

let nnz m =
  let c = ref 0 in
  Array.iter (Array.iter (fun x -> if x <> 0 then incr c)) m.data;
  !c

let iter_nonzero m f =
  for i = 0 to m.rows - 1 do
    let row = m.data.(i) in
    for j = 0 to m.cols - 1 do
      let v = Array.unsafe_get row j in
      if v <> 0 then f i j v
    done
  done

let equal a b = a.rows = b.rows && a.cols = b.cols && a.data = b.data
