(* Seeded inputs: the presets at scale 1.0 and their sub-relations. *)

module Relation = Jp_relation.Relation
module Presets = Jp_workload.Presets
module Rng = Jp_util.Rng

type query = { label : string; rel : Relation.t }

(* Sub-relation [i] of a spec keeps each set of the dataset with
   probability lo + (hi - lo)·i/(queries - 1), drawn from a stream seeded
   by (seed, stream, i).  Every seed gives the same ladder of shares, so
   the total work of a query list varies little between seeds. *)
let sub_relations ~seed ~stream (spec : Config.spec) r =
  let n = spec.queries in
  List.init n (fun i ->
      let share =
        if n = 1 then spec.lo
        else spec.lo +. ((spec.hi -. spec.lo) *. float_of_int i /. float_of_int (n - 1))
      in
      let g = Rng.create ((seed * 7919) + (stream * 104_729) + i) in
      let keep = Array.init (Relation.src_count r) (fun _ -> Rng.float g 1.0 < share) in
      {
        label = Printf.sprintf "%s#%d" (Presets.to_string spec.dataset) i;
        rel = Relation.restrict_src r (fun a -> keep.(a));
      })

(* Generates every dataset the specs name (once each) and builds the
   query list, in spec order; the k-th spec draws from stream k. *)
let queries ~seed specs =
  let loaded = Hashtbl.create 4 in
  let dataset name =
    match Hashtbl.find_opt loaded name with
    | Some r -> r
    | None ->
      let r = Presets.load ~scale:1.0 ~seed name in
      Hashtbl.add loaded name r;
      r
  in
  List.mapi
    (fun stream (spec : Config.spec) ->
      sub_relations ~seed ~stream spec (dataset spec.dataset))
    specs
  |> List.concat |> Array.of_list
