module Relation = Jp_relation.Relation

let active_src r =
  let n = ref 0 in
  for a = 0 to Relation.src_count r - 1 do
    if Relation.deg_src r a > 0 then incr n
  done;
  !n

type summary = { n : int; dom_x : int; dom_z : int; join_size : int }

let summarize ~r ~s =
  {
    n = max (Relation.size r) (Relation.size s);
    dom_x = active_src r;
    dom_z = active_src s;
    join_size = Relation.join_size_on_dst [ r; s ];
  }

let bounds sm =
  let n = max 1 sm.n in
  let ratio = sm.join_size / n in
  let lower = max (max sm.dom_x sm.dom_z) (ratio * ratio) in
  let upper = min (sm.dom_x * sm.dom_z) sm.join_size in
  (* Degenerate inputs can invert the sandwich; keep it consistent. *)
  let upper = max upper 1 in
  let lower = max 1 (min lower upper) in
  (lower, upper)

let estimate sm =
  let lower, upper = bounds sm in
  let g = sqrt (float_of_int lower *. float_of_int upper) in
  max lower (min upper (int_of_float g))

let sampled ?(seed = 0x5EED) ?(sample = 64) ~r ~s () =
  let lower, upper = bounds (summarize ~r ~s) in
  let nx = Relation.src_count r in
  let active = Array.of_seq (Seq.filter (fun a -> Relation.deg_src r a > 0) (Seq.init nx (fun a -> a))) in
  let n_active = Array.length active in
  if n_active = 0 then 0
  else begin
    let rng = Jp_util.Rng.create seed in
    let sample = min sample n_active in
    let chosen = Array.init sample (fun _ -> active.(Jp_util.Rng.int rng n_active)) in
    let stamps = Array.make (Relation.src_count s) (-1) in
    let total = ref 0 in
    Array.iteri
      (fun idx a ->
        Array.iter
          (fun b ->
            Array.iter
              (fun c ->
                if Array.unsafe_get stamps c <> idx then begin
                  Array.unsafe_set stamps c idx;
                  incr total
                end)
              (Relation.adj_dst s b))
          (Relation.adj_src r a))
      chosen;
    let scaled =
      int_of_float (float_of_int !total /. float_of_int sample *. float_of_int n_active)
    in
    max lower (min upper scaled)
  end
