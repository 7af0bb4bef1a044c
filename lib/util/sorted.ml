let lower_bound (a : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem (a : int array) (x : int) =
  let i = lower_bound a x in
  i < Array.length a && a.(i) = x

let gallop (a : int array) ~start (x : int) =
  let n = Array.length a in
  if start >= n || a.(start) >= x then start
  else begin
    (* Exponential probe from [start], then binary search in the bracket. *)
    let step = ref 1 in
    let prev = ref start in
    let cur = ref (start + 1) in
    while !cur < n && Array.unsafe_get a !cur < x do
      prev := !cur;
      step := !step * 2;
      cur := !cur + !step
    done;
    let lo = ref (!prev + 1) and hi = ref (min !cur n) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* Cost heuristic: if one side is much smaller, gallop through the big one;
   otherwise do a linear merge. *)
let ratio_for_gallop = 16

let intersect_linear (a : int array) (b : int array) out =
  let i = ref 0 and j = ref 0 in
  let na = Array.length a and nb = Array.length b in
  while !i < na && !j < nb do
    let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
    if x < y then incr i
    else if y < x then incr j
    else begin
      (match out with Some v -> Vec.push v x | None -> ());
      incr i;
      incr j
    end
  done

let intersect_gallop (small : int array) (big : int array) out =
  let j = ref 0 in
  Array.iter
    (fun x ->
      j := gallop big ~start:!j x;
      if !j < Array.length big && big.(!j) = x then begin
        (match out with Some v -> Vec.push v x | None -> ());
        incr j
      end)
    small

let intersect_dispatch a b out =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then ()
  else if na * ratio_for_gallop < nb then intersect_gallop a b out
  else if nb * ratio_for_gallop < na then intersect_gallop b a out
  else intersect_linear a b out

let intersect a b =
  let v = Vec.create ~capacity:(min (Array.length a) (Array.length b) + 1) () in
  intersect_dispatch a b (Some v);
  Vec.to_array v

let intersect_count (a : int array) (b : int array) =
  let i = ref 0 and j = ref 0 and c = ref 0 in
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then 0
  else if na * ratio_for_gallop < nb || nb * ratio_for_gallop < na then begin
    let small, big = if na < nb then (a, b) else (b, a) in
    let k = ref 0 in
    Array.iter
      (fun x ->
        k := gallop big ~start:!k x;
        if !k < Array.length big && big.(!k) = x then begin
          incr c;
          incr k
        end)
      small;
    !c
  end
  else begin
    while !i < na && !j < nb do
      let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
      if x < y then incr i
      else if y < x then incr j
      else begin
        incr c;
        incr i;
        incr j
      end
    done;
    !c
  end

let union_into (a : int array) (b : int array) out pos =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and k = ref pos in
  while !i < na && !j < nb do
    let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
    if x <= y then begin
      Array.unsafe_set out !k x;
      incr i;
      if x = y then incr j
    end
    else begin
      Array.unsafe_set out !k y;
      incr j
    end;
    incr k
  done;
  Array.blit a !i out !k (na - !i);
  k := !k + na - !i;
  Array.blit b !j out !k (nb - !j);
  !k + nb - !j - pos

let subset (a : int array) (b : int array) =
  Array.length a <= Array.length b
  &&
  let j = ref 0 and ok = ref true in
  (try
     Array.iter
       (fun x ->
         j := gallop b ~start:!j x;
         if !j >= Array.length b || b.(!j) <> x then begin
           ok := false;
           raise Exit
         end;
         incr j)
       a
   with Exit -> ());
  !ok

let intersect_many = function
  | [] -> invalid_arg "Sorted.intersect_many: empty list"
  | [ a ] -> Array.copy a
  | lists ->
    let sorted =
      List.sort (fun a b -> Int.compare (Array.length a) (Array.length b)) lists
    in
    (match sorted with
    | smallest :: rest ->
      List.fold_left (fun acc a -> if Array.length acc = 0 then acc else intersect acc a) smallest rest
    | [] -> assert false)
