module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Cancel = Jp_util.Cancel
module Row_acc = Jp_util.Row_acc
module Vec = Jp_util.Vec

(* Every id a list presents is a probe; every id of a row is a stamp
   miss, and the rest are hits, whether or not the row was stamped. *)
let publish ~probes ~misses =
  Jp_obs.add Jp_obs.C.light_probes probes;
  Jp_obs.add Jp_obs.C.stamp_misses misses;
  Jp_obs.add Jp_obs.C.stamp_hits (probes - misses)

(* One worker expands the x values [lo, hi), ascending: each row is
   appended to [out] and its length stored at [lengths.(x + 1)].  An x
   with no tuple keeps length 0, a row of one or two lists is written
   directly, and only rows of three or more go through the accumulator
   [acc] over dom(z). *)
let expand_rows ~acc ~out ~lengths ~r ~s lo hi =
  let obs = Jp_obs.recording () in
  let probes = ref 0 and written = ref 0 in
  for a = lo to hi - 1 do
    let ys = Relation.adj_src r a in
    let k = Array.length ys in
    if k > 0 then begin
      let n =
        if k = 1 then begin
          let zs = Relation.adj_dst s (Array.unsafe_get ys 0) in
          if obs then probes := !probes + Array.length zs;
          Row_acc.one_list_into out zs
        end
        else if k = 2 then begin
          let z0 = Relation.adj_dst s (Array.unsafe_get ys 0)
          and z1 = Relation.adj_dst s (Array.unsafe_get ys 1) in
          if obs then probes := !probes + Array.length z0 + Array.length z1;
          Row_acc.two_lists_into out z0 z1
        end
        else begin
          Row_acc.start acc;
          for j = 0 to k - 1 do
            let zs = Relation.adj_dst s (Array.unsafe_get ys j) in
            if obs then probes := !probes + Array.length zs;
            Row_acc.add_all acc zs
          done;
          Row_acc.emit_into acc out
        end
      in
      lengths.(a + 1) <- n;
      written := !written + n
    end
  done;
  if obs then publish ~probes:!probes ~misses:!written

let expand_counts ~acc ~zs ~counts ~r ~s ~lengths lo hi =
  let obs = Jp_obs.recording () in
  let probes = ref 0 and misses = ref 0 in
  for a = lo to hi - 1 do
    Row_acc.start acc;
    let ys = Relation.adj_src r a in
    for j = 0 to Array.length ys - 1 do
      let zl = Relation.adj_dst s (Array.unsafe_get ys j) in
      if obs then probes := !probes + Array.length zl;
      Row_acc.add_witnesses acc zl
    done;
    let n = Row_acc.emit_counts_into acc zs counts in
    lengths.(a + 1) <- n;
    misses := !misses + n
  done;
  if obs then publish ~probes:!probes ~misses:!misses

(* A y that S does not have has no S tuples: widening S's y domain to
   R's once here keeps every [adj_dst s b] below in bounds without a
   per-tuple branch. *)
let cover_dst ~r s = Relation.widen_dst s (Relation.dst_count r)

let project ?(domains = 1) ?cancel ~r ~s () =
  Jp_obs.span "wcoj.expand" (fun () ->
      let n = Relation.src_count r in
      let s = cover_dst ~r s in
      let lengths = Array.make (n + 1) 0 in
      let chunks =
        Jp_parallel.Pool.split_ranges ~domains ?cancel ~lo:0 ~hi:n
          ~scratch:(fun () ->
            (Row_acc.borrow (Relation.src_count s), Pairs.chunk ()))
          (fun (acc, out) lo hi -> expand_rows ~acc ~out ~lengths ~r ~s lo hi)
      in
      Array.iter (fun (acc, _) -> Row_acc.release acc) chunks;
      Pairs.of_chunks ~lengths ~bound:(Relation.src_count s) (Array.map snd chunks))

let project_counts ?(domains = 1) ?cancel ~r ~s () =
  Jp_obs.span "wcoj.expand_counts" (fun () ->
      let n = Relation.src_count r in
      let s = cover_dst ~r s in
      let lengths = Array.make (n + 1) 0 in
      let chunks =
        Jp_parallel.Pool.split_ranges ~domains ?cancel ~lo:0 ~hi:n
          ~scratch:(fun () ->
            ( Row_acc.borrow ~counts:true (Relation.src_count s),
              Pairs.chunk (),
              Pairs.chunk () ))
          (fun (acc, zs, counts) lo hi ->
            expand_counts ~acc ~zs ~counts ~r ~s ~lengths lo hi)
      in
      Array.iter (fun (acc, _, _) -> Row_acc.release acc) chunks;
      Counted_pairs.of_chunks ~lengths ~bound:(Relation.src_count s)
        (Array.map (fun (_, zs, _) -> zs) chunks)
        (Array.map (fun (_, _, counts) -> counts) chunks))

let count_distinct ~r ~s () =
  let s = cover_dst ~r s in
  let stamps = Array.make (Relation.src_count s) (-1) in
  let total = ref 0 in
  for a = 0 to Relation.src_count r - 1 do
    Array.iter
      (fun b ->
        Array.iter
          (fun c ->
            if Array.unsafe_get stamps c <> a then begin
              Array.unsafe_set stamps c a;
              incr total
            end)
          (Relation.adj_dst s b))
      (Relation.adj_src r a)
  done;
  !total
