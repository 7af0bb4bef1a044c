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

let mul a b =
  if a.cols <> Array.length b.data then
    invalid_arg
      (Printf.sprintf "Boolmat.mul: dimension mismatch (%dx%d . %dx%d)"
         (rows a) a.cols (rows b) b.cols);
  Jp_obs.span "matrix.bool_mul" (fun () ->
      let c = create ~rows:(rows a) ~cols:b.cols in
      let words_per_row = Bitset.payload_words b.cols in
      let obs = Jp_obs.recording () in
      let do_row i =
        let acc = c.data.(i) in
        if obs then begin
          let unions = ref 0 in
          Bitset.iter
            (fun k ->
              Stdlib.incr unions;
              Bitset.union_into ~dst:acc b.data.(k))
            a.data.(i);
          Jp_obs.add Jp_obs.C.mm_bool_word_ops (!unions * words_per_row)
        end
        else Bitset.iter (fun k -> Bitset.union_into ~dst:acc b.data.(k)) a.data.(i)
      in
      for i = 0 to rows a - 1 do
        do_row i
      done;
      c)

let count_product a b =
  if a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf
         "Boolmat.count_product: inner dim mismatch (%dx%d . (%dx%d)T)"
         (rows a) a.cols (rows b) b.cols);
  Jp_obs.span "matrix.count_product" (fun () ->
      let u = rows a and w = rows b in
      let c = Intmat.create ~rows:u ~cols:w in
      let obs = Jp_obs.recording () in
      let do_row i =
        let arow = a.data.(i) in
        if not (Bitset.is_empty arow) then begin
          if obs then
            Jp_obs.add Jp_obs.C.mm_count_word_ops
              (w * Bitset.payload_words a.cols);
          for l = 0 to w - 1 do
            let k = Bitset.inter_count arow b.data.(l) in
            if k > 0 then Intmat.set c i l k
          done
        end
      in
      for i = 0 to u - 1 do
        do_row i
      done;
      c)

let row_nnz m i = Bitset.count m.data.(i)

let nnz m = Array.fold_left (fun acc r -> acc + Bitset.count r) 0 m.data

let iter_row m i f = Bitset.iter f m.data.(i)
