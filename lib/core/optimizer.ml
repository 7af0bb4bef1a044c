module Relation = Jp_relation.Relation
module Stats = Jp_relation.Stats
module Cost = Jp_matrix.Cost

type decision = Wcoj | Partitioned of { d1 : int; d2 : int }

type plan = {
  decision : decision;
  est_out : int;
  join_size : int;
  est_seconds : float;
}

(* Indexes consulted by the cost loop (Section 5, "Indexing relations").
   Built only for inputs the 20N rule does not send to WCOJ. *)
type indexes = {
  sm : Estimator.summary;
  (* y side: keyed by min(deg_R y, deg_S y), since y is light iff that
     minimum is <= d1; the three share one ordering *)
  y_by_min : Stats.t; (* weights: deg_R y * deg_S y = expansion work *)
  y_wr : Stats.t; (* weights: deg_R y — mass of R tuples on light y *)
  y_ws : Stats.t; (* weights: deg_S y *)
  x_stats : Stats.t; (* keyed by deg_R x, weights: expansion work of x *)
  z_stats : Stats.t;
}

(* weight(a) = sum over b in adj(a) of deg_other(b): the work to expand a. *)
let expansion_weights rel other =
  let nb = Relation.dst_count other in
  let w = Array.make (Relation.src_count rel) 0 in
  for a = 0 to Array.length w - 1 do
    let row = Relation.adj_src rel a in
    let acc = ref 0 in
    for i = 0 to Array.length row - 1 do
      let b = row.(i) in
      if b < nb then acc := !acc + Relation.deg_dst other b
    done;
    w.(a) <- !acc
  done;
  w

let build_indexes ~r ~s sm =
  let ny = max (Relation.dst_count r) (Relation.dst_count s) in
  let deg rel y = if y < Relation.dst_count rel then Relation.deg_dst rel y else 0 in
  let wr = Array.init ny (deg r) and ws = Array.init ny (deg s) in
  let min_deg = Array.init ny (fun y -> Int.min wr.(y) ws.(y)) in
  let prod = Array.init ny (fun y -> wr.(y) * ws.(y)) in
  let y_by_min = Stats.of_degrees ~weights:prod min_deg in
  {
    sm;
    y_by_min;
    y_wr = Stats.reweight y_by_min wr;
    y_ws = Stats.reweight y_by_min ws;
    x_stats = Stats.of_degrees ~weights:(expansion_weights r s) (Relation.degrees_src r);
    z_stats = Stats.of_degrees ~weights:(expansion_weights s r) (Relation.degrees_src s);
  }

(* Heavy matrix dimensions for thresholds (d1, d2).  [v] is exact;
   [u]/[w] bound the rows/columns by the Δ₂ heavy-value count (infinity
   in counts mode, where every endpoint adjacent to a heavy y joins the
   matrix) and by the number of endpoints adjacent to any heavy y. *)
let tuples_on_heavy_y idx stats ~d1 =
  Stats.weight_le stats (Stats.max_degree idx.y_by_min) - Stats.weight_le stats d1

let heavy_dims ~counts_mode idx ~d1 ~d2 =
  let v = Stats.count_gt idx.y_by_min d1 in
  let r_touched = min idx.sm.dom_x (tuples_on_heavy_y idx idx.y_wr ~d1) in
  let s_touched = min idx.sm.dom_z (tuples_on_heavy_y idx idx.y_ws ~d1) in
  if counts_mode then (r_touched, v, s_touched)
  else
    ( min (Stats.count_gt idx.x_stats d2) r_touched,
      v,
      min (Stats.count_gt idx.z_stats d2) s_touched )

(* In counts mode there are no R-/S- sub-joins: the combinatorial side
   only expands light-y tuples. *)
let light_seconds ~counts_mode (m : Cost.machine) idx ~d1 ~d2 =
  let light_y_work = Stats.weight_le idx.y_by_min d1 in
  let endpoint_work =
    if counts_mode then 0
    else Stats.weight_le idx.x_stats d2 + Stats.weight_le idx.z_stats d2
  in
  (m.ti *. float_of_int (light_y_work + endpoint_work))
  +. (m.tm *. float_of_int idx.sm.dom_x)

let heavy_seconds (m : Cost.machine) kind ~domains (u, v, w) =
  if u = 0 || v = 0 || w = 0 then 0.0
  else Cost.mhat m kind ~u ~v ~w ~cores:domains

let partitioned_seconds ~counts_mode ~mm_cost_scale m kind ~domains idx ~d1 ~d2 =
  light_seconds ~counts_mode m idx ~d1 ~d2
  +. mm_cost_scale
     *. heavy_seconds m kind ~domains (heavy_dims ~counts_mode idx ~d1 ~d2)

let wcoj_seconds (m : Cost.machine) (sm : Estimator.summary) =
  (m.ti *. float_of_int sm.join_size) +. (m.tm *. float_of_int sm.dom_x)

(* Geometric descent on d1 (Algorithm 3): stop as soon as the cost stops
   improving, return the previous candidate. *)
let descend ~cost ~start =
  let shrink d = max 1 (min (d - 1) (int_of_float (0.95 *. float_of_int d))) in
  let rec go ~best_d ~best_cost d =
    let c = cost d in
    if c > best_cost then (best_d, best_cost)
    else if d = 1 then (d, c)
    else go ~best_d:d ~best_cost:c (shrink d)
  in
  let c0 = cost start in
  if start = 1 then (start, c0) else go ~best_d:start ~best_cost:c0 (shrink start)

let d2_for idx ~est_out d1 =
  (* N·Δ₁ = |OUT|·Δ₂ (line 9 of Algorithm 3) *)
  max 1 (min idx.sm.n (idx.sm.n * d1 / max 1 est_out))

(* Algorithm 3: a full join of at most 20·N goes to WCOJ, uncosted. *)
let wcoj_factor = 20

(* Immutable: nothing is forced later, so domains may share one. *)
type prepared = {
  p_r : Relation.t;
  p_s : Relation.t;
  p_sum : Estimator.summary;
  p_idx : indexes option; (* None: the 20N rule decided WCOJ *)
}

let prepare ~r ~s =
  Jp_obs.span "optimizer.prepare" (fun () ->
      let sm = Estimator.summarize ~r ~s in
      let p_idx =
        if sm.join_size <= wcoj_factor * sm.n then None
        else Some (build_indexes ~r ~s sm)
      in
      { p_r = r; p_s = s; p_sum = sm; p_idx })

let summary prep = prep.p_sum

(* Cache footprint of what the value holds besides the relations it
   shares: the summary, plus per active id the shared y ordering (id,
   degree, three weight prefixes) and the x and z orderings (id, degree,
   one prefix each). *)
let prepared_bytes prep =
  let active st = Stats.count_gt st 0 in
  96
  + match prep.p_idx with
    | None -> 0
    | Some idx ->
      8 * ((5 * active idx.y_by_min) + (3 * (active idx.x_stats + active idx.z_stats)))

let generic_plan ?machine ?(domains = 1) ~kind ?est_out ?(mm_cost_scale = 1.0)
    ~counts_mode ~tie_d2 prep () =
  let m = match machine with Some m -> m | None -> Cost.machine () in
  let sm = prep.p_sum in
  let est_out =
    match est_out with
    | Some e -> max 1 e
    | None -> Estimator.estimate sm
  in
  let wcoj_cost = wcoj_seconds m sm in
  let wcoj =
    { decision = Wcoj; est_out; join_size = sm.join_size; est_seconds = wcoj_cost }
  in
  match prep.p_idx with
  | None -> wcoj
  | Some idx ->
    let cost d1 =
      partitioned_seconds ~counts_mode ~mm_cost_scale m kind ~domains idx ~d1
        ~d2:(tie_d2 idx ~est_out d1)
    in
    let start = max 1 (Stats.max_degree idx.y_by_min) in
    let d1, best_cost = descend ~cost ~start in
    if best_cost >= wcoj_cost || d1 >= start then wcoj
    else
      {
        wcoj with
        decision = Partitioned { d1; d2 = tie_d2 idx ~est_out d1 };
        est_seconds = best_cost;
      }

(* d2 pinned to the maximal degree for counts mode: only the join variable
   is partitioned, every x/z counts as light. *)
let max_d2 idx ~est_out:_ _d1 = idx.sm.n

let plan_prepared ?machine ?domains ?(kind = Cost.Boolean) ?est_out
    ?mm_cost_scale prep () =
  Jp_obs.span "optimizer.plan" (fun () ->
      generic_plan ?machine ?domains ~kind ?est_out ?mm_cost_scale
        ~counts_mode:false ~tie_d2:d2_for prep ())

let plan_counts_prepared ?machine ?domains ?est_out ?mm_cost_scale prep () =
  Jp_obs.span "optimizer.plan_counts" (fun () ->
      generic_plan ?machine ?domains ~kind:Cost.Count ?est_out ?mm_cost_scale
        ~counts_mode:true ~tie_d2:max_d2 prep ())

let plan ?machine ?domains ?kind ?est_out ?mm_cost_scale ~r ~s () =
  plan_prepared ?machine ?domains ?kind ?est_out ?mm_cost_scale (prepare ~r ~s) ()

let plan_counts ?machine ?domains ?est_out ?mm_cost_scale ~r ~s () =
  plan_counts_prepared ?machine ?domains ?est_out ?mm_cost_scale (prepare ~r ~s) ()

let estimate_cost_prepared ?machine ?(domains = 1) ?(kind = Cost.Boolean)
    ?(counts_mode = false) prep decision =
  let m = match machine with Some m -> m | None -> Cost.machine () in
  match decision with
  | Wcoj -> wcoj_seconds m prep.p_sum
  | Partitioned { d1; d2 } ->
    let idx =
      match prep.p_idx with
      | Some idx -> idx
      | None -> build_indexes ~r:prep.p_r ~s:prep.p_s prep.p_sum
    in
    partitioned_seconds ~counts_mode ~mm_cost_scale:1.0 m kind ~domains idx ~d1 ~d2

let estimate_cost ?machine ?domains ?kind ?counts_mode ~r ~s decision =
  estimate_cost_prepared ?machine ?domains ?kind ?counts_mode (prepare ~r ~s)
    decision

let theoretical_thresholds ~n ~out =
  if n < 1 || out < 1 then invalid_arg "Optimizer.theoretical_thresholds";
  let nf = float_of_int n and outf = float_of_int out in
  let clamp d = max 1 (min n (int_of_float (Float.round d))) in
  if out <= n then
    (clamp (outf ** (1.0 /. 3.0)), clamp (nf /. (outf ** (2.0 /. 3.0))))
  else begin
    let d = (2.0 *. nf *. nf /. (nf +. outf)) ** (1.0 /. 3.0) in
    (clamp d, clamp d)
  end

let decision_to_string = function
  | Wcoj -> "wcoj"
  | Partitioned { d1; d2 } -> Printf.sprintf "mm(d1=%d,d2=%d)" d1 d2

let explain p =
  Printf.sprintf "plan=%s est_out=%d join_size=%d est=%.4fs"
    (decision_to_string p.decision)
    p.est_out p.join_size p.est_seconds
