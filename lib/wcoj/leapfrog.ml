let iter arrays f =
  let k = Array.length arrays in
  if k = 0 then invalid_arg "Leapfrog.iter: no arrays";
  let pos = Array.make k 0 in
  let exhausted = ref false in
  Array.iter (fun a -> if Array.length a = 0 then exhausted := true) arrays;
  if not !exhausted then begin
    (* Invariant: candidate is the largest current key; p points at the
       iterator that must catch up. *)
    let candidate = ref arrays.(0).(0) in
    for i = 1 to k - 1 do
      if arrays.(i).(0) > !candidate then candidate := arrays.(i).(0)
    done;
    let p = ref 0 in
    let matches = ref 0 in
    while not !exhausted do
      let a = arrays.(!p) in
      let i = Jp_util.Sorted.gallop a ~start:pos.(!p) !candidate in
      if i >= Array.length a then exhausted := true
      else begin
        pos.(!p) <- i;
        if a.(i) = !candidate then begin
          incr matches;
          if !matches >= k then begin
            f !candidate;
            matches := 0;
            (* advance this iterator past the match *)
            let j = i + 1 in
            if j >= Array.length a then exhausted := true
            else begin
              pos.(!p) <- j;
              candidate := a.(j);
              matches := 1
            end
          end
        end
        else begin
          candidate := a.(i);
          matches := 1
        end;
        p := (!p + 1) mod k
      end
    done
  end
