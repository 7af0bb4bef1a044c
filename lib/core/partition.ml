module Relation = Jp_relation.Relation

type t = {
  d1 : int;
  d2 : int;
  light_y : bool array;
  heavy_x : int array;
  heavy_y : int array;
  heavy_z : int array;
  x_index : int array;
  y_index : int array;
  z_index : int array;
}

let index_of ~space ids =
  let idx = Array.make space (-1) in
  Array.iteri (fun i v -> idx.(v) <- i) ids;
  idx

let make_unspanned ~r ~s ~d1 ~d2 =
  let ny = max (Relation.dst_count r) (Relation.dst_count s) in
  let deg_ry y = if y < Relation.dst_count r then Relation.deg_dst r y else 0 in
  let deg_sy y = if y < Relation.dst_count s then Relation.deg_dst s y else 0 in
  let light_y = Array.init ny (fun y -> deg_ry y <= d1 || deg_sy y <= d1) in
  let heavy_y = Jp_util.Vec.create () in
  Array.iteri (fun y light -> if not light then Jp_util.Vec.push heavy_y y) light_y;
  let heavy_y = Jp_util.Vec.to_array heavy_y in
  (* An output-variable value joins the matrix only if heavy AND adjacent
     to at least one heavy y (otherwise its matrix row/column is zero). *)
  let heavy_endpoints rel =
    let out = Jp_util.Vec.create () in
    for a = 0 to Relation.src_count rel - 1 do
      if Relation.deg_src rel a > d2 then begin
        let has_heavy =
          Array.exists (fun b -> not light_y.(b)) (Relation.adj_src rel a)
        in
        if has_heavy then Jp_util.Vec.push out a
      end
    done;
    Jp_util.Vec.to_array out
  in
  let heavy_x = heavy_endpoints r in
  let x_index = index_of ~space:(Relation.src_count r) heavy_x in
  (* A self-join (every SSJ and counted self-join) shares the x arrays
     as its z arrays: nothing writes a partition's arrays once built. *)
  let heavy_z, z_index =
    if s == r then (heavy_x, x_index)
    else
      let heavy_z = heavy_endpoints s in
      (heavy_z, index_of ~space:(Relation.src_count s) heavy_z)
  in
  {
    d1;
    d2;
    light_y;
    heavy_x;
    heavy_y;
    heavy_z;
    x_index;
    y_index = index_of ~space:ny heavy_y;
    z_index;
  }

let make ?cancel ~r ~s ~d1 ~d2 () =
  if d1 < 1 || d2 < 0 then
    invalid_arg "Partition.make: thresholds must be d1 >= 1 and d2 >= 0";
  Jp_util.Cancel.check_opt cancel;
  Jp_obs.span "partition.make" (fun () -> make_unspanned ~r ~s ~d1 ~d2)

let is_light_y t y = y >= Array.length t.light_y || t.light_y.(y)

let dims t =
  (Array.length t.heavy_x, Array.length t.heavy_y, Array.length t.heavy_z)
