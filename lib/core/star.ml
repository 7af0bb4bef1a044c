module Relation = Jp_relation.Relation
module Tuples = Jp_relation.Tuples
module Vec = Jp_util.Vec
module Obs = Jp_obs
module Cancel = Jp_util.Cancel
module Guard = Jp_adaptive.Guard
module Tile = Jp_matrix.Tile

type strategy = Matrix | Combinatorial

(* Cancellation checkpoints: phase boundaries plus every [poll_every]
   iterations of the y/row loops (the combinatorial work per y is
   unbounded, so per-y polling would still be "per chunk" — but the mask
   keeps the poll off the common path entirely). *)
let poll_every = 256

let maybe_check cancel i =
  if i land (poll_every - 1) = 0 then Cancel.check_opt cancel

let full_join_size rels = Jp_wcoj.Star.join_size rels

(* Engineering heuristic (the paper derives closed forms per |OUT| regime,
   Example 4): tie both thresholds to the average y-degree sqrt(J/N), so
   the light enumeration N·Δ₁^(k-1) and the heavy matrix shrink together;
   clamp to a sane range. *)
let choose_thresholds rels =
  let j = full_join_size rels in
  let n = Array.fold_left (fun acc r -> max acc (Relation.size r)) 1 rels in
  let d = int_of_float (sqrt (float_of_int j /. float_of_int n)) in
  let d = max 2 (min 256 d) in
  (d, d)

(* Bit layout for packing a tuple group into one int key. *)
let bits_needed dim =
  let rec go b = if 1 lsl b >= dim then b else go (b + 1) in
  if dim <= 1 then 1 else go 1

let group_layout dims =
  let shifts = Array.make (Array.length dims) 0 in
  let off = ref 0 in
  Array.iteri
    (fun i d ->
      shifts.(i) <- !off;
      off := !off + bits_needed d)
    dims;
  if !off > 62 then None else Some shifts

exception Matrix_overflow

(* Enumerate the cross product of [lists], packing each combination with
   [shifts] and passing it to [emit]. *)
let iter_combos lists shifts emit =
  let k = Array.length lists in
  let rec go i key =
    if i = k then emit key
    else Array.iter (fun a -> go (i + 1) (key lor (a lsl shifts.(i)))) lists.(i)
  in
  go 0 0

let unpack_into shifts dims key tuple ~offset =
  Array.iteri
    (fun i shift ->
      tuple.(offset + i) <- (key lsr shift) land ((1 lsl bits_needed dims.(i)) - 1))
    shifts

(* The heavy residue via the V·W matrix product of Section 3.2.  One
   pass over the qualifying ys interns every prefix/suffix combo and
   records the (combo, y) pairs; V (prefix combo × y) and W (y × suffix
   combo) are the adjacency arrays of the two pair relations, and
   Tile streams their product a band of rows at a time. *)
let heavy_matrix_step ~domains ?cancel ~builder ~heavy_lists ~qualifying_ys
    ~dims k ~combo_cap () =
  let m = (k + 1) / 2 in
  let prefix_dims = Array.sub dims 0 m in
  let suffix_dims = Array.sub dims m (k - m) in
  match (group_layout prefix_dims, group_layout suffix_dims) with
  | None, _ | _, None -> raise Matrix_overflow
  | Some prefix_shifts, Some suffix_shifts ->
    let prefix_index : (int, int) Hashtbl.t = Hashtbl.create 1024 in
    let suffix_index : (int, int) Hashtbl.t = Hashtbl.create 1024 in
    let prefix_keys = Vec.create () and suffix_keys = Vec.create () in
    let prefix_pairs = Vec.create () and suffix_pairs = Vec.create () in
    let intern index keys pairs jy key =
      match Hashtbl.find_opt index key with
      | Some i -> Vec.push2 pairs i jy
      | None ->
        let i = Hashtbl.length index in
        if i >= combo_cap then raise Matrix_overflow;
        Hashtbl.add index key i;
        Vec.push keys key;
        Vec.push2 pairs i jy
    in
    Array.iteri
      (fun jy y ->
        maybe_check cancel jy;
        let lists : int array array = heavy_lists y in
        iter_combos (Array.sub lists 0 m) prefix_shifts
          (intern prefix_index prefix_keys prefix_pairs jy);
        iter_combos (Array.sub lists m (k - m)) suffix_shifts
          (intern suffix_index suffix_keys suffix_pairs jy))
      qualifying_ys;
    let u = Hashtbl.length prefix_index in
    let w = Hashtbl.length suffix_index in
    let v = Array.length qualifying_ys in
    if u > 0 && w > 0 && v > 0 then begin
      let pairs p n = Relation.of_flat ~src_count:n ~dst_count:v (Vec.to_array p) in
      let source rows cols adj =
        Tile.Source.of_adjacency ~rows ~cols (fun i f -> Array.iter f (adj i))
      in
      let tuple = Array.make k 0 in
      Tile.mul_rows ~domains ?cancel (Tile.config ())
        (source u v (Relation.adj_src (pairs prefix_pairs u)))
        (source v w (Relation.adj_dst (pairs suffix_pairs w)))
        (fun i row ->
          if not (Jp_util.Bitset.is_empty row) then begin
            unpack_into prefix_shifts prefix_dims (Vec.get prefix_keys i) tuple
              ~offset:0;
            Jp_util.Bitset.iter
              (fun l ->
                unpack_into suffix_shifts suffix_dims (Vec.get suffix_keys l)
                  tuple ~offset:m;
                Tuples.add builder tuple)
              row
          end)
    end

(* As in Two_path: wall-clock phases feeding the plan-vs-actual record,
   measured only while recording. *)
let phase phases name f =
  if Obs.recording () then begin
    let t0 = Jp_util.Timer.now () in
    let x = f () in
    phases := (name, Jp_util.Timer.now () -. t0) :: !phases;
    x
  end
  else f ()

(* A time-budget checkpoint: a blown budget vetoes the matrix step. *)
let degrade_on_budget g strategy =
  if strategy = Matrix && Guard.check_budget g ~cells:0 = Guard.Degrade then begin
    Guard.note_degrade g;
    Combinatorial
  end
  else strategy

let project_impl ~domains ~strategy ~thresholds ~guard ~cancel rels =
  let k = Array.length rels in
  if k < 2 then invalid_arg "Star.project: arity must be >= 2";
  Cancel.check_opt cancel;
  let t_start = Jp_util.Timer.now () in
  let phases = ref [] in
  let g = Guard.start guard in
  (* Entry checkpoint: an already-blown time budget forbids the matrix
     step before any work is done.  Star thresholds are input-derived
     (no |OUT| estimate to inject or re-plan), so the guard's job here is
     budgets and outcome recording. *)
  let strategy = degrade_on_budget g strategy in
  let d1, d2 = match thresholds with Some t -> t | None -> choose_thresholds rels in
  let dims = Array.map Relation.src_count rels in
  let builder = Tuples.create_builder ~arity:k ~dims in
  let add tuple _y = Tuples.add builder tuple in
  (* y-degree per relation, total over the shared y space *)
  let ny = Array.fold_left (fun acc r -> max acc (Relation.dst_count r)) 0 rels in
  let deg_y i y = if y < Relation.dst_count rels.(i) then Relation.deg_dst rels.(i) y else 0 in
  let light_in_all_others j y =
    let ok = ref true in
    for l = 0 to k - 1 do
      if l <> j && deg_y l y > d1 then ok := false
    done;
    !ok
  in
  (* Step 1: light-x sub-joins. *)
  phase phases "light-x" (fun () ->
      for j = 0 to k - 1 do
        Cancel.check_opt cancel;
        Jp_wcoj.Star.iter_full
          ~restrict:(j, fun c _ -> Relation.deg_src rels.(j) c <= d2)
          rels add
      done);
  (* Step 2: light-y sub-joins. *)
  phase phases "light-y" (fun () ->
      for j = 0 to k - 1 do
        Cancel.check_opt cancel;
        Jp_wcoj.Star.iter_full
          ~restrict:(j, fun _ y -> light_in_all_others j y)
          rels add
      done);
  (* Step 3: the all-heavy residue.  R_i^+ keeps tuples with heavy x_i and
     y heavy in at least one other relation. *)
  let heavy_lists y =
    Array.mapi
      (fun i r ->
        (* mixed-orientation stars give the relations different y domains;
           past a relation's dst space its adjacency is empty *)
        if y >= Relation.dst_count r || light_in_all_others i y then [||]
        else
          Array.of_seq
            (Seq.filter
               (fun a -> Relation.deg_src r a > d2)
               (Array.to_seq (Relation.adj_dst r y))))
      rels
  in
  let qualifying_ys =
    phase phases "qualify" (fun () ->
        let qualifying = Vec.create () in
        for y = 0 to ny - 1 do
          maybe_check cancel y;
          let lists = heavy_lists y in
          if Array.for_all (fun l -> Array.length l > 0) lists then
            Vec.push qualifying y
        done;
        Vec.to_array qualifying)
  in
  let combinatorial_heavy () =
    let tuple = Array.make k 0 in
    Array.iteri
      (fun jy y ->
        maybe_check cancel jy;
        let lists = heavy_lists y in
        let rec fill i =
          if i = k then Tuples.add builder tuple
          else
            Array.iter
              (fun a ->
                tuple.(i) <- a;
                fill (i + 1))
              lists.(i)
        in
        fill 0)
      qualifying_ys
  in
  (* Pre-MM checkpoint: with the qualifying heavy residue known, the time
     budget can still veto the matrices, and the cells budget tightens the
     interning cap so u·v + v·w stays within it (the product itself is
     streamed a band at a time). *)
  let strategy = degrade_on_budget g strategy in
  let combo_cap =
    let default = 5_000_000 in
    match (Guard.config g).Guard.budget.Guard.max_cells with
    | Some cells -> min default (cells / (2 * max 1 (Array.length qualifying_ys)))
    | None -> default
  in
  let heavy_path = ref "comb" in
  Cancel.check_opt cancel;
  (match strategy with
  | Combinatorial ->
    phase phases "heavy-comb" (fun () -> combinatorial_heavy ())
  | Matrix -> (
    try
      phase phases "heavy-mm" (fun () ->
          Obs.span "star.heavy_mm" (fun () ->
              heavy_matrix_step ~domains ?cancel ~builder ~heavy_lists ~qualifying_ys
                ~dims k ~combo_cap ()));
      heavy_path := "mm"
    with Matrix_overflow ->
      Guard.note_degrade g;
      phase phases "heavy-comb" (fun () -> combinatorial_heavy ())));
  let result = phase phases "build" (fun () -> Tuples.build builder) in
  if Obs.recording () then
    Obs.record_plan ~label:"star"
      ~degraded:(Guard.degraded g)
      ~decision:(Printf.sprintf "star-%s(d1=%d,d2=%d)" !heavy_path d1 d2)
      ~est_out:(-1) ~join_size:(full_join_size rels) ~est_seconds:Float.nan
      ~actual_out:(Tuples.count result)
      ~actual_seconds:(Jp_util.Timer.now () -. t_start)
      ~phases:(List.rev !phases) ();
  result

let project ?(domains = 1) ?(strategy = Matrix) ?thresholds
    ?(guard = Guard.inert) ?cancel rels =
  Obs.span "star.project" (fun () ->
      project_impl ~domains ~strategy ~thresholds ~guard ~cancel rels)
