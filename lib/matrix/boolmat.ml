module Bitset = Jp_util.Bitset

type t = { data : Bitset.t array; cols : int }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Boolmat.create";
  { data = Array.init rows (fun _ -> Bitset.create cols); cols }

let rows m = Array.length m.data

let cols m = m.cols

let set m i j = Bitset.set m.data.(i) j

let mem m i j = Bitset.mem m.data.(i) j

let row m i = m.data.(i)

let of_adjacency ~rows ~cols adj =
  if rows < 0 || cols < 0 then invalid_arg "Boolmat.of_adjacency";
  { data = Array.init rows (fun i -> Bitset.of_sorted_array cols (adj i)); cols }

let row_nnz m i = Bitset.count m.data.(i)

let nnz m = Array.fold_left (fun acc r -> acc + Bitset.count r) 0 m.data

let iter_row m i f = Bitset.iter f m.data.(i)
