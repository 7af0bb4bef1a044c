type t = { data : int array array; rows : int; cols : int }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Intmat.create";
  { data = Array.init rows (fun _ -> Array.make cols 0); rows; cols }

let create_upper n =
  if n < 0 then invalid_arg "Intmat.create_upper";
  { data = Array.init n (fun i -> Array.make (n - i - 1) 0); rows = n; cols = n }

let row m i = m.data.(i)
