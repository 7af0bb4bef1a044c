type t = { data : int array array; rows : int; cols : int }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Intmat.create";
  { data = Array.init rows (fun _ -> Array.make cols 0); rows; cols }

let create_upper n =
  if n < 0 then invalid_arg "Intmat.create_upper";
  { data = Array.init n (fun i -> Array.make (n - i - 1) 0); rows = n; cols = n }

let set m i j x = m.data.(i).(j) <- x

let row m i = m.data.(i)

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
