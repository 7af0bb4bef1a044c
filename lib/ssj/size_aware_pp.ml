module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Vec = Jp_util.Vec
module Two_path = Joinproj.Two_path

type options = { mm_heavy : bool; mm_light : bool; prefix : bool }

let all_on = { mm_heavy = true; mm_light = true; prefix = true }

let ablation = function
  | `No_op -> { mm_heavy = false; mm_light = false; prefix = false }
  | `Light -> { mm_heavy = false; mm_light = true; prefix = false }
  | `Heavy -> { mm_heavy = true; mm_light = true; prefix = false }
  | `Prefix -> { mm_heavy = true; mm_light = true; prefix = true }

(* Heavy phase as a counted join-project: R |><| R_h with witness counts,
   thresholded at c.  Pair emission mirrors Size_aware.join_heavy_only:
   (anything, heavy) pairs, heavy-heavy only from the smaller side. *)
let heavy_via_mm ~domains ~boundary ~c r =
  let is_heavy a = Relation.deg_src r a >= boundary in
  let rh = Relation.restrict_src r is_heavy in
  if Relation.size rh = 0 then Pairs.empty (Relation.src_count r)
  else begin
    let counted = Two_path.project_counts ~domains ~r ~s:rh () in
    let n = Relation.src_count r in
    let rows = Array.init n (fun _ -> Vec.create ~capacity:0 ()) in
    Jp_relation.Counted_pairs.iter
      (fun s h k ->
        if k >= c && s <> h && ((not (is_heavy s)) || s < h) then
          Vec.push rows.(min s h) (max s h))
      counted;
    Pairs.of_rows_unchecked
      (Array.map
         (fun v ->
           Vec.sort_dedup v;
           Vec.to_array v)
         rows)
  end

(* Light phase via matrix multiplication: sharing a c-subset bucket is
   equivalent to overlapping in >= c elements, so the light-light pairs
   are exactly the boolean join-project of the {set, bucket} relation
   with itself. *)
let light_via_mm ~domains ~boundary ~c r =
  let n = Relation.src_count r in
  let is_light a =
    let d = Relation.deg_src r a in
    d >= c && d < boundary
  in
  let bucket_ids : (int list, int) Hashtbl.t = Hashtbl.create 4096 in
  let edges = Vec.create () in
  for s = 0 to n - 1 do
    if is_light s then
      Common.iter_c_subsets (Relation.adj_src r s) ~c (fun key ->
          let b =
            match
              Hashtbl.find_opt bucket_ids key
              [@jp.lint.allow "hashtbl-dedup"
                "bucket interning is keyed by int-list c-subsets; \
                 structured keys with no dense int domain to stamp"]
            with
            | Some b -> b
            | None ->
              let b = Hashtbl.length bucket_ids in
              (Hashtbl.add bucket_ids key b
              [@jp.lint.allow "hashtbl-dedup"
                "same int-list c-subset keys"]);
              b
          in
          Vec.push2 edges s b)
  done;
  if Vec.length edges = 0 then Pairs.empty n
  else begin
    let b =
      Relation.of_flat ~src_count:n ~dst_count:(Hashtbl.length bucket_ids)
        (Vec.to_array edges)
    in
    let joined = Two_path.project ~domains ~r:b ~s:b () in
    (* keep the upper triangle *)
    let rows =
      Array.init n (fun i ->
          let upper = Vec.create ~capacity:(max 1 (Pairs.row_length joined i)) () in
          Pairs.iter_row (fun z -> if z > i then Vec.push upper z) joined i;
          Vec.to_array upper)
    in
    Pairs.of_rows_unchecked rows
  end

let light_via_prefix ~boundary ~c r =
  let members = Vec.create () in
  for a = 0 to Relation.src_count r - 1 do
    let d = Relation.deg_src r a in
    if d >= c && d < boundary then Vec.push members a
  done;
  Overlap_tree.similar_pairs ~members:(Vec.to_array members) ~c r

let join ?(domains = 1) ?(options = all_on) ?boundary ~c r =
  if c < 1 then invalid_arg "Size_aware_pp.join: c must be >= 1";
  let boundary =
    match boundary with Some b -> max b 1 | None -> Size_aware.get_size_boundary r ~c
  in
  let heavy =
    if options.mm_heavy then heavy_via_mm ~domains ~boundary ~c r
    else Size_aware.join_heavy_only ~boundary ~c r
  in
  let light =
    if options.prefix then light_via_prefix ~boundary ~c r
    else if options.mm_light then light_via_mm ~domains ~boundary ~c r
    else Size_aware.join_light_only ~boundary ~c r
  in
  Pairs.union heavy light
