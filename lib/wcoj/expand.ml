module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Cancel = Jp_util.Cancel

let all_xs r = Array.init (Relation.src_count r) (fun i -> i)

(* One worker expands the x values [xs.(lo..hi-1)] into [rows], using a
   stamp vector sized to dom(z).  Stamps avoid clearing between x's: a cell
   is live iff it holds the current stamp — and because the stamp is the
   global index [idx], the same scratch can be reused across sub-ranges of
   one worker's range (indices never repeat). *)
let expand_scratch ~stamps ~buf ~r ~s ~keep_y ~keep_zy ~rows ~xs lo hi =
  let obs = Jp_obs.recording () in
  let probes = ref 0 and misses = ref 0 in
  for idx = lo to hi - 1 do
    let a = xs.(idx) in
    Jp_util.Vec.clear buf;
    let stamp = idx in
    Array.iter
      (fun b ->
        if keep_y b then begin
          let zs = Relation.adj_dst s b in
          if obs then probes := !probes + Array.length zs;
          Array.iter
            (fun c ->
              if keep_zy c b && Array.unsafe_get stamps c <> stamp then begin
                Array.unsafe_set stamps c stamp;
                Jp_util.Vec.push buf c
              end)
            zs
        end)
      (Relation.adj_src r a);
    if obs then misses := !misses + Jp_util.Vec.length buf;
    Jp_util.Vec.sort_dedup buf;
    rows.(a) <- Jp_util.Vec.to_array buf
  done;
  if obs then begin
    Jp_obs.add Jp_obs.C.light_probes !probes;
    Jp_obs.add Jp_obs.C.stamp_misses !misses;
    Jp_obs.add Jp_obs.C.stamp_hits (!probes - !misses)
  end

let expand_counts_scratch ~stamps ~counts ~buf ~r ~s ~keep_y ~keep_zy ~rows ~xs
    lo hi =
  let obs = Jp_obs.recording () in
  let probes = ref 0 and misses = ref 0 in
  for idx = lo to hi - 1 do
    let a = xs.(idx) in
    Jp_util.Vec.clear buf;
    let stamp = idx in
    Array.iter
      (fun b ->
        if keep_y b then begin
          let zs = Relation.adj_dst s b in
          if obs then probes := !probes + Array.length zs;
          Array.iter
            (fun c ->
              if keep_zy c b then
                if Array.unsafe_get stamps c <> stamp then begin
                  Array.unsafe_set stamps c stamp;
                  Array.unsafe_set counts c 1;
                  Jp_util.Vec.push buf c
                end
                else Array.unsafe_set counts c (Array.unsafe_get counts c + 1))
            zs
        end)
      (Relation.adj_src r a);
    if obs then misses := !misses + Jp_util.Vec.length buf;
    Jp_util.Vec.sort_dedup buf;
    let zs = Jp_util.Vec.to_array buf in
    let cs = Array.map (fun c -> counts.(c)) zs in
    rows.(a) <- (zs, cs)
  done;
  if obs then begin
    Jp_obs.add Jp_obs.C.light_probes !probes;
    Jp_obs.add Jp_obs.C.stamp_misses !misses;
    Jp_obs.add Jp_obs.C.stamp_hits (!probes - !misses)
  end

let default_filters keep_y keep_zy =
  let keep_y = match keep_y with Some f -> f | None -> fun _ -> true in
  let keep_zy = match keep_zy with Some f -> f | None -> fun _ _ -> true in
  (keep_y, keep_zy)

(* A y that S does not have has no S tuples: widening S's y domain to
   R's once here keeps every [adj_dst s b] below in bounds without a
   per-tuple branch. *)
let cover_dst ~r s = Relation.widen_dst s (Relation.dst_count r)

let project ?(domains = 1) ?cancel ?xs ?keep_y ?keep_zy ~r ~s () =
  Jp_obs.span "wcoj.expand" (fun () ->
      let keep_y, keep_zy = default_filters keep_y keep_zy in
      let xs = match xs with Some a -> a | None -> all_xs r in
      let s = cover_dst ~r s in
      let rows = Array.make (Relation.src_count r) [||] in
      Jp_parallel.Pool.split_ranges ~domains ?cancel ~lo:0 ~hi:(Array.length xs)
        ~scratch:(fun () ->
          (Array.make (Relation.src_count s) (-1), Jp_util.Vec.create ~capacity:256 ()))
        (fun (stamps, buf) lo hi ->
          expand_scratch ~stamps ~buf ~r ~s ~keep_y ~keep_zy ~rows ~xs lo hi);
      Pairs.of_rows_unchecked rows)

let project_counts ?(domains = 1) ?cancel ?xs ?keep_y ?keep_zy ~r ~s () =
  Jp_obs.span "wcoj.expand_counts" (fun () ->
      let keep_y, keep_zy = default_filters keep_y keep_zy in
      let xs = match xs with Some a -> a | None -> all_xs r in
      let s = cover_dst ~r s in
      let rows = Array.make (Relation.src_count r) ([||], [||]) in
      let nz = Relation.src_count s in
      Jp_parallel.Pool.split_ranges ~domains ?cancel ~lo:0 ~hi:(Array.length xs)
        ~scratch:(fun () ->
          (Array.make nz (-1), Array.make nz 0, Jp_util.Vec.create ~capacity:256 ()))
        (fun (stamps, counts, buf) lo hi ->
          expand_counts_scratch ~stamps ~counts ~buf ~r ~s ~keep_y ~keep_zy
            ~rows ~xs lo hi);
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
