type 'a t = {
  mutable prio : int array;
  mutable data : 'a option array;
  mutable len : int;
}

let create () = { prio = Array.make 16 0; data = Array.make 16 None; len = 0 }

let size t = t.len

let grow t =
  let cap = 2 * Array.length t.prio in
  let prio = Array.make cap 0 and data = Array.make cap None in
  Array.blit t.prio 0 prio 0 t.len;
  Array.blit t.data 0 data 0 t.len;
  t.prio <- prio;
  t.data <- data

let swap t i j =
  let p = t.prio.(i) in
  t.prio.(i) <- t.prio.(j);
  t.prio.(j) <- p;
  let d = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- d

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prio.(i) < t.prio.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.prio.(l) < t.prio.(!smallest) then smallest := l;
  if r < t.len && t.prio.(r) < t.prio.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~priority x =
  if t.len = Array.length t.prio then grow t;
  t.prio.(t.len) <- priority;
  t.data.(t.len) <- Some x;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let min_priority t =
  if t.len = 0 then invalid_arg "Heap.min_priority: empty";
  t.prio.(0)

let pop_min t =
  if t.len = 0 then invalid_arg "Heap.pop_min: empty";
  let p = t.prio.(0) in
  let x = match t.data.(0) with Some x -> x | None -> assert false in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.prio.(0) <- t.prio.(t.len);
    t.data.(0) <- t.data.(t.len)
  end;
  t.data.(t.len) <- None;
  sift_down t 0;
  (p, x)

let to_list t =
  let acc = ref [] in
  for i = 0 to t.len - 1 do
    match t.data.(i) with
    | Some x -> acc := (t.prio.(i), x) :: !acc
    | None -> assert false
  done;
  !acc
