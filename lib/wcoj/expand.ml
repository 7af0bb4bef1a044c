module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Cancel = Jp_util.Cancel
module Row_acc = Jp_util.Row_acc

let all_xs r = Array.init (Relation.src_count r) (fun i -> i)

(* One worker expands the x values [xs.(lo..hi-1)] into [rows] through
   its row accumulator [acc] over dom(z); the accumulator is reused
   across every sub-range the worker runs. *)
let expand_scratch ~acc ~r ~s ~keep_y ~rows ~xs lo hi =
  let obs = Jp_obs.recording () in
  let probes = ref 0 and misses = ref 0 in
  for idx = lo to hi - 1 do
    let a = xs.(idx) in
    Row_acc.start acc;
    Array.iter
      (fun b ->
        if keep_y b then begin
          let zs = Relation.adj_dst s b in
          if obs then probes := !probes + Array.length zs;
          Row_acc.add_all acc zs
        end)
      (Relation.adj_src r a);
    let row = Row_acc.emit acc in
    if obs then misses := !misses + Array.length row;
    rows.(a) <- row
  done;
  if obs then begin
    Jp_obs.add Jp_obs.C.light_probes !probes;
    Jp_obs.add Jp_obs.C.stamp_misses !misses;
    Jp_obs.add Jp_obs.C.stamp_hits (!probes - !misses)
  end

let expand_counts_scratch ~acc ~r ~s ~keep_y ~rows ~xs lo hi =
  let obs = Jp_obs.recording () in
  let probes = ref 0 and misses = ref 0 in
  for idx = lo to hi - 1 do
    let a = xs.(idx) in
    Row_acc.start acc;
    Array.iter
      (fun b ->
        if keep_y b then begin
          let zs = Relation.adj_dst s b in
          if obs then probes := !probes + Array.length zs;
          Row_acc.add_witnesses acc zs
        end)
      (Relation.adj_src r a);
    let ((zs, _) as row) = Row_acc.emit_counts acc in
    if obs then misses := !misses + Array.length zs;
    rows.(a) <- row
  done;
  if obs then begin
    Jp_obs.add Jp_obs.C.light_probes !probes;
    Jp_obs.add Jp_obs.C.stamp_misses !misses;
    Jp_obs.add Jp_obs.C.stamp_hits (!probes - !misses)
  end


(* A y that S does not have has no S tuples: widening S's y domain to
   R's once here keeps every [adj_dst s b] below in bounds without a
   per-tuple branch. *)
let cover_dst ~r s = Relation.widen_dst s (Relation.dst_count r)

let project ?(domains = 1) ?cancel ?xs ?keep_y ~r ~s () =
  Jp_obs.span "wcoj.expand" (fun () ->
      let keep_y = match keep_y with Some f -> f | None -> fun _ -> true in
      let xs = match xs with Some a -> a | None -> all_xs r in
      let s = cover_dst ~r s in
      let rows = Array.make (Relation.src_count r) [||] in
      Jp_parallel.Pool.split_ranges ~domains ?cancel ~lo:0 ~hi:(Array.length xs)
        ~scratch:(fun () -> Row_acc.create (Relation.src_count s))
        (fun acc lo hi ->
          expand_scratch ~acc ~r ~s ~keep_y ~rows ~xs lo hi);
      Pairs.of_rows_unchecked rows)

let project_counts ?(domains = 1) ?cancel ?xs ?keep_y ~r ~s () =
  Jp_obs.span "wcoj.expand_counts" (fun () ->
      let keep_y = match keep_y with Some f -> f | None -> fun _ -> true in
      let xs = match xs with Some a -> a | None -> all_xs r in
      let s = cover_dst ~r s in
      let rows = Array.make (Relation.src_count r) ([||], [||]) in
      Jp_parallel.Pool.split_ranges ~domains ?cancel ~lo:0 ~hi:(Array.length xs)
        ~scratch:(fun () -> Row_acc.create ~counts:true (Relation.src_count s))
        (fun acc lo hi ->
          expand_counts_scratch ~acc ~r ~s ~keep_y ~rows ~xs lo hi);
      Counted_pairs.of_rows_unchecked rows)

let count_distinct ?xs ?keep_y ~r ~s () =
  let keep_y = match keep_y with Some f -> f | None -> fun _ -> true in
  let xs = match xs with Some a -> a | None -> all_xs r in
  let s = cover_dst ~r s in
  let stamps = Array.make (Relation.src_count s) (-1) in
  let total = ref 0 in
  Array.iteri
    (fun idx a ->
      Array.iter
        (fun b ->
          if keep_y b then
            Array.iter
              (fun c ->
                if Array.unsafe_get stamps c <> idx then begin
                  Array.unsafe_set stamps c idx;
                  incr total
                end)
              (Relation.adj_dst s b))
        (Relation.adj_src r a))
    xs;
  !total
