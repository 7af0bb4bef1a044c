type t = {
  dom : int; (* length of the degree array the index was built from *)
  ids : int array; (* active value ids, ascending by degree, ties by id *)
  degs : int array; (* degree of ids.(i), ascending *)
  prefix_weight : int array; (* prefix_weight.(i) = Σ weight of ids.(0..i-1) *)
}

let prefix ids weights =
  let n = Array.length ids in
  let p = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    p.(i + 1) <- p.(i) + weights.(ids.(i))
  done;
  p

let check_weights dom weights =
  if Array.length weights <> dom then
    invalid_arg "Stats: weights length mismatch"

(* Stable counting sort of the active ids by degree: one histogram pass,
   one prefix over the degrees, one scatter in id order. *)
let of_degrees ?weights deg =
  let dom = Array.length deg in
  Option.iter (check_weights dom) weights;
  let max_deg = Array.fold_left Int.max 0 deg in
  let start = Array.make (max_deg + 1) 0 in
  for v = 0 to dom - 1 do
    let d = deg.(v) in
    if d > 0 then start.(d) <- start.(d) + 1
  done;
  let active = ref 0 in
  for d = 1 to max_deg do
    let k = start.(d) in
    start.(d) <- !active;
    active := !active + k
  done;
  let ids = Array.make !active 0 and degs = Array.make !active 0 in
  for v = 0 to dom - 1 do
    let d = deg.(v) in
    if d > 0 then begin
      let i = start.(d) in
      ids.(i) <- v;
      degs.(i) <- d;
      start.(d) <- i + 1
    end
  done;
  let weights = Option.value weights ~default:deg in
  { dom; ids; degs; prefix_weight = prefix ids weights }

let reweight t weights =
  check_weights t.dom weights;
  { t with prefix_weight = prefix t.ids weights }

let max_degree t =
  let n = Array.length t.degs in
  if n = 0 then 0 else t.degs.(n - 1)

(* Index of the first degree strictly greater than d. *)
let split t d = Jp_util.Sorted.lower_bound t.degs (d + 1)

let count_gt t d = Array.length t.ids - split t d

let weight_le t d = t.prefix_weight.(split t d)
