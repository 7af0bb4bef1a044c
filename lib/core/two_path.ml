module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Boolmat = Jp_matrix.Boolmat
module Intmat = Jp_matrix.Intmat
module Vec = Jp_util.Vec
module Row_acc = Jp_util.Row_acc
module Obs = Jp_obs
module Cancel = Jp_util.Cancel
module Guard = Jp_adaptive.Guard
module Inject = Jp_adaptive.Inject

type strategy = Matrix | Combinatorial

(* The set-similarity join's heavy product, strict upper part only: the
   exact triangle of A·Aᵀ, or thermometer planes saturated at c. *)
type upper_product = Triangle of Intmat.t | Planes of Boolmat.t array

(* Memoization hooks (consumed by [Jp_cache], which sits above this
   library in the dependency graph).  Each hook receives the builder for
   a deterministic intermediate — the prepared optimizer indexes, or a
   heavy-part matrix product identified by its thresholds — and may
   return a previously built value for the same (r, s, thresholds)
   instead of calling it.  A memo is specific to the (r, s) pair it was
   created for.  [no_memo] (the default) calls every builder directly. *)
type memo = {
  memo_prepared : (unit -> Optimizer.prepared) -> Optimizer.prepared;
  memo_bool_product : d1:int -> d2:int -> (unit -> Boolmat.t) -> Boolmat.t;
  memo_count_product : d1:int -> (unit -> Intmat.t) -> Intmat.t;
  memo_upper_product :
    d1:int ->
    c:int ->
    kernel:Jp_matrix.Cost.ssj_kernel ->
    (unit -> upper_product) ->
    upper_product;
}

let no_memo =
  {
    memo_prepared = (fun build -> build ());
    memo_bool_product = (fun ~d1:_ ~d2:_ build -> build ());
    memo_count_product = (fun ~d1:_ build -> build ());
    memo_upper_product = (fun ~d1:_ ~c:_ ~kernel:_ build -> build ());
  }

(* Measures one engine phase for the plan-vs-actual record; [f] may open
   its own spans, so this deliberately does not open one.  Top-level (and
   handed the accumulator explicitly) to stay polymorphic in the phase's
   result type. *)
let phase phases name f =
  if Obs.recording () then begin
    let t0 = Jp_util.Timer.now () in
    let x = f () in
    phases := (name, Jp_util.Timer.now () -. t0) :: !phases;
    x
  end
  else f ()

(* A y that S does not have has no S tuples: widening S's y domain to
   R's once per call keeps every [adj_dst s b] below in bounds without
   per-tuple checks. *)
let cover_dst ~r s = Relation.widen_dst s (Relation.dst_count r)

(* ------------------------------------------------------------------ *)
(* The heavy product (Section 3.1), shared by both engines             *)
(* ------------------------------------------------------------------ *)

(* A heavy operand: row [i] holds the neighbours [adj ids.(i)] that the
   partition keeps, at their positions in [index] (a [cols]-wide column
   space).  The row function is pure, so [Jp_tile] may call it again to
   rebuild an evicted tile. *)
let operand adj ids index ~cols =
  Jp_tile.Source.of_mapped ~rows:(Array.length ids) ~cols
    (fun i -> adj ids.(i))
    index

(* The boolean product M{R⁺}·M{S⁺}: R⁺ as [heavy_x] rows over
   [y_index], S⁺ as [heavy_y] rows over [z_index], through [Jp_tile]
   behind the whole-product memo hook. *)
let bool_product ?cancel ?checkpoint ~tile ~memo ~domains ~r ~s
    (p : Partition.t) =
  memo.memo_bool_product ~d1:p.d1 ~d2:p.d2 (fun () ->
      Obs.span "two_path.heavy_mm" (fun () ->
          Jp_tile.mul ~domains ?cancel ?checkpoint tile
            (operand (Relation.adj_src r) p.heavy_x p.y_index
               ~cols:(Array.length p.heavy_y))
            (operand (Relation.adj_dst s) p.heavy_y p.z_index
               ~cols:(Array.length p.heavy_z))))

(* The count product A·Bᵀ over bit-packed rows (62 multiply-adds per
   word op): A rows are x's heavy-y bitsets, B rows are z's heavy-y
   bitsets — S⁺ transposed, [heavy_z] rows over [y_index]. *)
let count_product ?cancel ?checkpoint ~tile ~memo ~domains ~r ~s
    (p : Partition.t) =
  memo.memo_count_product ~d1:p.d1 (fun () ->
      let v = Array.length p.heavy_y in
      Jp_tile.count_product ~domains ?cancel ?checkpoint tile
        (operand (Relation.adj_src r) p.heavy_x p.y_index ~cols:v)
        (operand (Relation.adj_src s) p.heavy_z p.y_index ~cols:v))

(* The SSJ's product over a self-join partition (heavy_z = heavy_x):
   only the cells (i, l) with l > i, and only as far as the threshold
   [c] needs them.  [Jp_matrix.Cost.ssj_kernel] prices the exact
   triangle (one AND+popcount per cell over the inner words) against
   [c] saturating planes (the transposed operand's rows OR'd into [c]
   planes per selected row) from the product's shape and A's ones,
   nnz(A) = Σ deg(y) over heavy y (d₂ = 0 puts every endpoint of a
   heavy y in A).  Planes depend on [c] and the triangle does not, so
   the memo key carries both [c] and the kernel. *)
let upper_product ?cancel ?checkpoint ~c ~tile ~memo ~domains ~r
    (p : Partition.t) =
  let u = Array.length p.heavy_x and v = Array.length p.heavy_y in
  let nnz = Array.fold_left (fun n y -> n + Relation.deg_dst r y) 0 p.heavy_y in
  let kernel =
    Jp_matrix.Cost.ssj_kernel (Jp_matrix.Cost.machine ()) ~c ~u ~v ~nnz
  in
  memo.memo_upper_product ~d1:p.d1 ~c ~kernel (fun () ->
      let a = operand (Relation.adj_src r) p.heavy_x p.y_index ~cols:v in
      match kernel with
      | Jp_matrix.Cost.Triangle ->
        Obs.incr Obs.C.ssj_triangles;
        Triangle (Jp_tile.count_upper ~domains ?cancel ?checkpoint tile a)
      | Jp_matrix.Cost.Planes ->
        Obs.incr Obs.C.ssj_planes;
        Planes
          (Jp_tile.upper_planes ~domains ?cancel ?checkpoint tile ~c a
             (operand (Relation.adj_dst r) p.heavy_y p.x_index ~cols:u)))

(* Public alias: the BSI fast path builds (and caches) the same product
   over a full-relation partition, answering heavy-heavy point queries
   straight from its bits. *)
let heavy_product ?(domains = 1) ~r ~s p =
  bool_product ~tile:(Jp_tile.config ()) ~memo:no_memo ~domains ~r
    ~s:(cover_dst ~r s) p

(* ------------------------------------------------------------------ *)
(* Boolean (dedup-only) evaluation                                     *)
(* ------------------------------------------------------------------ *)

(* The heavy part a partitioned merge joins besides the light lists:
   the matrix product M{R⁺}·M{S⁺}, or (combinatorial strategy) each
   heavy y's heavy-z list, expanded per heavy x. *)
type heavy_part = Product of Boolmat.t | Expansion of int array array

(* For heavy y values, S's inverted list restricted to its light-z half
   ([light]) or its heavy-z half, built once (O(N)): the per-x merge
   loop would otherwise rescan whole inverted lists just to filter them,
   degenerating to the full join when few values are light.  A heavy
   y's light-z list holds no id with a product column. *)
let heavy_y_lists ~s (p : Partition.t) ~light =
  let lists = Array.make (Relation.dst_count s) [||] in
  Array.iter
    (fun b ->
      let keep = Vec.create () in
      Array.iter
        (fun c ->
          if Bool.equal (Relation.deg_src s c <= p.d2) light then Vec.push keep c)
        (Relation.adj_dst s b);
      lists.(b) <- Vec.to_array keep)
    p.heavy_y;
  lists

(* The merged per-x loop over rows [lo, hi): light contributions from
   R- |><| S and R |><| S-, plus the heavy part.  A heavy x with a
   product row is a split row of [acc]: the product row seeds its
   columns (one per heavy z, copied word by word), light ids with a
   column set it, and only light z are stamped; the row comes out as a
   merge of the two disjoint sorted halves.  Every other row (light x,
   or the combinatorial expansion) is deduplicated by the stamps alone.
   Returns the number of pairs produced — the observed-output statistic
   guard checkpoints extrapolate from. *)
let merge_range ~acc ~r ~s ~(p : Partition.t) ~heavy ~s_light_of_heavy_y ~rows
    lo hi =
  let obs = Obs.recording () in
  let light_scans = ref 0 and presented = ref 0 and produced = ref 0 in
  let count zs =
    if obs then begin
      light_scans := !light_scans + Array.length zs;
      presented := !presented + Array.length zs
    end
  in
  for a = lo to hi - 1 do
    (match heavy with
    | Product m when p.x_index.(a) >= 0 ->
      let seeded =
        Row_acc.start_split acc ~index:p.z_index ~heavy:p.heavy_z
          (Boolmat.row m p.x_index.(a))
      in
      if obs then presented := !presented + seeded
    | Product _ | Expansion _ -> Row_acc.start acc);
    let a_light = Relation.deg_src r a <= p.d2 in
    Array.iter
      (fun b ->
        if a_light || Partition.is_light_y p b then begin
          let zs = Relation.adj_dst s b in
          count zs;
          Row_acc.add_all acc zs
        end
        else begin
          (* heavy a, heavy b: only the S- tuples (light z) are
             joined here; heavy z is the heavy part's job *)
          let zs = s_light_of_heavy_y.(b) in
          count zs;
          Row_acc.add_light acc zs
        end)
      (Relation.adj_src r a);
    (match heavy with
    | Expansion s_heavy_of_heavy_y when not a_light ->
      Array.iter
        (fun b ->
          if not (Partition.is_light_y p b) then begin
            let zs = s_heavy_of_heavy_y.(b) in
            count zs;
            Row_acc.add_all acc zs
          end)
        (Relation.adj_src r a)
    | Expansion _ | Product _ -> ());
    let row = Row_acc.emit acc in
    produced := !produced + Array.length row;
    rows.(a) <- row
  done;
  if obs then begin
    Obs.add Obs.C.light_probes !light_scans;
    Obs.add Obs.C.stamp_misses !produced;
    Obs.add Obs.C.stamp_hits (!presented - !produced)
  end;
  !produced

(* Matrix cells the partition would materialize (u·v + v·w + u·w) — the
   intermediate-size quantity {!Guard.budget}'s [max_cells] bounds. *)
let partition_cells p =
  let u, v, w = Partition.dims p in
  (u * v) + (v * w) + (u * w)

(* Guard checkpoint that can only mark the outcome: the work it guards
   is already the cheapest path left. *)
let note_budget g =
  match Guard.check_budget g ~cells:0 with
  | Guard.Degrade -> Guard.note_degrade g
  | Guard.Continue | Guard.Replan -> ()

(* The heavy product's guard checkpoint, once per output tile, but only
   when the tiles run on the calling domain — worker domains race past
   sequential checkpoints (same rule as the chunked merge). *)
let tile_checkpoint ~domains g =
  if domains > 1 then None else Some (fun () -> note_budget g)

(* Algorithm 1 on [plan0], supervised by the guard [g].  Without a
   caller's guard [g] is {!Guard.inert}: every checkpoint answers
   [Continue] and this is the plain plan → partition → heavy MM → light
   merge pipeline.  Checkpoints (all once per chunk or phase, never per
   tuple):

   - entry (in [frame]): a zero time budget degrades before any work;
   - Wcoj probe (only while re-planning fuel remains): after
     [probe_rows] rows, extrapolate |OUT| and re-plan if it diverges
     from the estimate, or if a clean re-plan prefers the matrix path by
     more than the divergence factor (an mm-cost misestimate leaves
     est_out honest but the decision wrong) — a switch keeps the rows
     already expanded and runs the new plan on the rest;
   - post-partition, pre-MM: the cells budget vetoes the matrices
     (combinatorial heavy part instead), and the plan's est_seconds is
     compared against the honest cost of the chosen thresholds;
   - per-chunk during the light merge (single-domain only): wall-clock
     budget and |OUT| extrapolation; a mid-merge re-plan resumes the new
     plan at the current row, keeping all finished rows.

   Re-planning is always done with clean (un-injected) statistics and
   bounded by the guard's fuel, so the recursion terminates.  A cancel
   token is polled at these checkpoints and between merge chunks. *)
let execute ?cancel ~tile ~g ~prep ~replan ~domains ~strategy ~memo ~phases ~r
    ~s plan0 =
  let cfg = Guard.config g in
  let nx = Relation.src_count r in
  (* Effective chunk sizes: bounded by the config but scaled to the x
     domain, so dense datasets (few, large sets) still get a handful of
     checkpoints instead of finishing inside one chunk. *)
  let check_chunk = max 64 (min cfg.Guard.check_every (nx / 8)) in
  let probe = max 64 (min cfg.Guard.probe_rows (nx / 4)) in
  let rows = Array.make nx [||] in
  let produced = ref 0 in
  let acc = lazy (Row_acc.create (Relation.src_count s)) in
  let strat = ref strategy in
  let expand_into lo hi =
    if hi > lo then
      phase phases "wcoj" (fun () ->
          let xs = Array.init (hi - lo) (fun i -> lo + i) in
          let out = Jp_wcoj.Expand.project ~domains ?cancel ~xs ~r ~s () in
          for a = lo to hi - 1 do
            let row = Pairs.row out a in
            rows.(a) <- row;
            produced := !produced + Array.length row
          done)
  in
  let rec run plan lo =
    if lo < nx then
      match plan.Optimizer.decision with
      | Optimizer.Wcoj -> run_wcoj plan lo
      | Optimizer.Partitioned { d1; d2 } -> run_partitioned plan ~d1 ~d2 lo
  and run_wcoj plan lo =
    (* Without fuel the probe could only mark an outcome: skip the split. *)
    let probe_hi = if Guard.can_replan g then min nx (lo + probe) else nx in
    expand_into lo probe_hi;
    if probe_hi < nx then begin
      Cancel.check_opt cancel;
      (* Wcoj already is the safe path: a blown budget only marks the
         outcome — the remaining rows still have to be expanded. *)
      note_budget g;
      let obs_out = max 1 (!produced * nx / probe_hi) in
      match
        Guard.check_estimate g
          ~est:(float_of_int plan.Optimizer.est_out)
          ~observed:(float_of_int obs_out)
      with
      | Guard.Replan -> run (replan obs_out) probe_hi
      | (Guard.Continue | Guard.Degrade) when Guard.can_replan g ->
        let np =
          Optimizer.plan_prepared ~domains ~kind:Jp_matrix.Cost.Boolean
            ~est_out:obs_out (Lazy.force prep) ()
        in
        let wcoj_cost =
          Optimizer.estimate_cost_prepared ~domains
            ~kind:Jp_matrix.Cost.Boolean (Lazy.force prep) Optimizer.Wcoj
        in
        (match np.Optimizer.decision with
        | Optimizer.Partitioned _
          when Guard.check_estimate g ~est:np.Optimizer.est_seconds
                 ~observed:wcoj_cost
               = Guard.Replan ->
          Guard.note_replan g;
          run np probe_hi
        | _ -> expand_into probe_hi nx)
      | Guard.Continue | Guard.Degrade -> expand_into probe_hi nx
    end
  and run_partitioned plan ~d1 ~d2 lo =
    Cancel.check_opt cancel;
    let p =
      phase phases "partition" (fun () -> Partition.make ?cancel ~r ~s ~d1 ~d2 ())
    in
    (match Guard.check_budget g ~cells:(partition_cells p) with
    | Guard.Degrade ->
      (* No room for the matrices: heavy part via the combinatorial
         expansion, which materializes nothing. *)
      Guard.note_degrade g;
      strat := Combinatorial
    | Guard.Continue | Guard.Replan -> ());
    let replan_on_cost =
      !strat = Matrix && Guard.can_replan g
      &&
      let honest =
        Optimizer.estimate_cost_prepared ~domains ~kind:Jp_matrix.Cost.Boolean
          (Lazy.force prep) (Optimizer.Partitioned { d1; d2 })
      in
      Guard.check_estimate g ~est:plan.Optimizer.est_seconds ~observed:honest
      = Guard.Replan
    in
    if replan_on_cost then
      run (replan (Estimator.sampled ~r ~s ())) lo
    else merge_partitioned plan ~p lo
  and merge_partitioned plan ~p lo =
    let product =
      match !strat with
      | Matrix ->
        Some
          (phase phases "heavy-mm" (fun () ->
               bool_product ?cancel
                 ?checkpoint:(tile_checkpoint ~domains g)
                 ~tile ~memo ~domains ~r ~s p))
      | Combinatorial -> None
    in
    Cancel.check_opt cancel;
    let resume =
      phase phases "light-merge" (fun () ->
          Obs.span "two_path.light_merge" (fun () ->
              let heavy =
                match product with
                | Some m -> Product m
                | None -> Expansion (heavy_y_lists ~s p ~light:false)
              in
              let s_light_of_heavy_y = heavy_y_lists ~s p ~light:true in
              let merge acc lo hi =
                merge_range ~acc ~r ~s ~p ~heavy ~s_light_of_heavy_y ~rows lo hi
              in
              if domains > 1 then begin
                (* Worker domains race past any sequential checkpoint, so
                   parallel merges keep only the plan-time and pre-MM
                   checks; the split still polls the cancel token. *)
                Jp_parallel.Pool.split_ranges ~domains ?cancel ~lo ~hi:nx
                  ~scratch:(fun () -> Row_acc.create (Relation.src_count s))
                  (fun sc l h -> ignore (merge sc l h));
                None
              end
              else begin
                let resume = ref None in
                let i = ref lo in
                while !resume = None && !i < nx do
                  Cancel.check_opt cancel;
                  let hi = min nx (!i + check_chunk) in
                  produced := !produced + merge (Lazy.force acc) !i hi;
                  i := hi;
                  if !i < nx then begin
                    (* Time blown mid-merge: the matrices are already
                       built and nothing cheaper remains, so only the
                       outcome is recorded. *)
                    note_budget g;
                    let obs_out = max 1 (!produced * nx / !i) in
                    match
                      Guard.check_estimate g
                        ~est:(float_of_int plan.Optimizer.est_out)
                        ~observed:(float_of_int obs_out)
                    with
                    | Guard.Replan ->
                      let np = replan obs_out in
                      if
                        np.Optimizer.decision
                        <> Optimizer.Partitioned { d1 = p.Partition.d1; d2 = p.Partition.d2 }
                      then resume := Some (np, !i)
                    | Guard.Continue | Guard.Degrade -> ()
                  end
                done;
                !resume
              end))
    in
    match resume with Some (np, at) -> run np at | None -> ()
  in
  run plan0 0;
  Pairs.of_rows_unchecked rows

(* The guard's injected |OUT| misestimation for the initial plan.  Without
   one the optimizer estimates |OUT| itself, inside its own span. *)
let injected_est_out inj prep =
  if inj.Inject.out_factor = 1.0 then None
  else Some (Inject.out inj (Estimator.estimate (Optimizer.summary prep)))

(* The frame both engines run in: the span, the timer, the guard, the
   memoized prepared planning state, the initial plan (which sees the guard's
   injected misestimation), the entry checkpoint, the clean re-planner
   and the plan-vs-actual record.  [run] returns the result with the
   plan to record. *)
let frame ~span ~label ~count
    ~(plan_with :
       ?est_out:int -> ?mm_cost_scale:float -> Optimizer.prepared -> Optimizer.plan)
    ?cancel ?plan ~strategy ~guard ~memo ~r ~s run =
  let s = cover_dst ~r s in
  Obs.span span (fun () ->
      let t0 = Jp_util.Timer.now () in
      Cancel.check_opt cancel;
      let phases = ref [] in
      let g = Guard.start guard in
      (* Built at most once per invocation: the initial plan forces it,
         and every later checkpoint re-plan reuses it. *)
      let prep = lazy (memo.memo_prepared (fun () -> Optimizer.prepare ~r ~s)) in
      let plan =
        match plan with
        | Some p -> p
        | None ->
          let inj = Guard.inject g in
          phase phases "plan" (fun () ->
              let prep = Lazy.force prep in
              plan_with ?est_out:(injected_est_out inj prep)
                ~mm_cost_scale:inj.Inject.mm_factor prep)
      in
      (* Entry checkpoint: a zero (or already blown) time budget forbids
         matrix plans outright. *)
      Cancel.check_opt cancel;
      let strategy =
        match Guard.check_budget g ~cells:0 with
        | Guard.Degrade ->
          Guard.note_degrade g;
          Combinatorial
        | Guard.Continue | Guard.Replan -> strategy
      in
      (* Re-planning always uses clean (un-injected) statistics. *)
      let replan est_out =
        phase phases "replan" (fun () ->
            Guard.note_replan g;
            plan_with ~est_out (Lazy.force prep))
      in
      let result, (plan : Optimizer.plan) =
        run ~g ~prep ~replan ~phases ~s ~strategy plan
      in
      if Obs.recording () then
        Obs.record_plan ~label ~replanned:(Guard.replanned g)
          ~degraded:(Guard.degraded g)
          ~decision:(Optimizer.decision_to_string plan.decision)
          ~est_out:plan.est_out ~join_size:plan.join_size
          ~est_seconds:plan.est_seconds ~actual_out:(count result)
          ~actual_seconds:(Jp_util.Timer.now () -. t0)
          ~phases:(List.rev !phases) ();
      result)

let project ?(domains = 1) ?(strategy = Matrix) ?plan ?(guard = Guard.inert)
    ?cancel ?(memo = no_memo) ?(tile = Jp_tile.config ()) ~r ~s () =
  frame ~span:"two_path.project" ~label:"two_path" ~count:Pairs.count
    ~plan_with:(fun ?est_out ?mm_cost_scale prep ->
      Optimizer.plan_prepared ~domains ~kind:Jp_matrix.Cost.Boolean ?est_out
        ?mm_cost_scale prep ())
    ?cancel ?plan ~strategy ~guard ~memo ~r ~s
    (fun ~g ~prep ~replan ~phases ~s ~strategy plan ->
      ( execute ?cancel ~tile ~g ~prep ~replan ~domains ~strategy ~memo ~phases
          ~r ~s plan,
        plan ))

(* ------------------------------------------------------------------ *)
(* Exact-count evaluation (partition on the join variable only)        *)
(* ------------------------------------------------------------------ *)

(* What a counted run makes of its rows.  The counted join keeps every
   pair with its witness count; the set-similarity join keeps, per x,
   the z > x with at least c witnesses ([threshold = Some c]): its
   product holds only the cells past the diagonal, and it merges only
   the z > x suffix of each light list.  The SSJ needs r = s, which
   makes heavy_x = heavy_z, so product column l > i is exactly z > x.
   [out] turns the number of pairs the merge met (before any threshold)
   into the plan record's actual |OUT|: the size of the full counted
   join, which est_out estimates. *)
type ('row, 'res) sink = {
  threshold : int option;
  empty : 'row;
  emit : Row_acc.t -> 'row;
  freeze : 'row array -> 'res;
  out : r:Relation.t -> int -> int;
}

let counted_rows =
  {
    threshold = None;
    empty = ([||], [||]);
    emit = Row_acc.emit_counts;
    freeze = Counted_pairs.of_rows_unchecked;
    out = (fun ~r:_ met -> met);
  }

(* Each upper pair (x, z) stands for (x, z) and (z, x) in the full
   self-join, and every x with a set is paired with itself. *)
let self_join_size ~r upper =
  let sets = ref 0 in
  for x = 0 to Relation.src_count r - 1 do
    if Array.length (Relation.adj_src r x) > 0 then incr sets
  done;
  (2 * upper) + !sets

let upper_rows ~c =
  {
    threshold = Some c;
    empty = [||];
    emit = (fun acc -> Row_acc.emit_ge acc c);
    freeze = Pairs.of_rows_unchecked;
    out = self_join_size;
  }

(* A counted run's heavy product: the full count matrix, or the SSJ's
   upper part. *)
type counted_product = Full of Intmat.t | Upper of upper_product

(* The count merge over every x: the witnesses of its light y values
   plus its row of the heavy count product, summed per z, since a
   pair's witnesses can be split between light and heavy y values.  A
   heavy x's row is a counting split row of [acc]: the stored product
   row seeds the heavy-z counts — a full row, the triangle's cells past
   the diagonal, or, from planes, min(h, c) past the diagonal — light
   witnesses of a heavy z add to its column, and only light z are
   stamped; the sink's emit thresholds both halves and merges them.
   Seeding min(h, c) is exact for the SSJ's threshold c: for every
   light count l ≥ 0, min(h, c) + l ≥ c exactly when h + l ≥ c.  Without a [heavy] (partition, product) every y is
   light: Wcoj plans, the combinatorial heavy part and the cell-cap
   fallback.  Returns the frozen rows and the number of pairs met
   before the sink's threshold. *)
let count_merge ~sink ?cancel ~domains ~r ~s heavy =
  Obs.span "two_path.count_merge" (fun () ->
      let nx = Relation.src_count r in
      let rows = Array.make nx sink.empty in
      let all_light, light_y =
        match heavy with
        | Some ((p : Partition.t), _) -> (false, p.light_y)
        | None -> (true, [||])
      in
      let met = Atomic.make 0 in
      let upper = sink.threshold <> None in
      let seed acc (p : Partition.t) m i =
        match m with
        | Full m | Upper (Triangle m) ->
          Row_acc.start_split_counts acc ~index:p.z_index ~heavy:p.heavy_z
            (Intmat.row m i)
        | Upper (Planes planes) ->
          Row_acc.start_split_planes acc ~index:p.z_index ~heavy:p.heavy_z
            ~first:(i + 1)
            (Array.map (fun plane -> Boolmat.row plane i) planes)
      in
      let run_rows acc lo hi =
        let obs = Obs.recording () in
        let light_scans = ref 0 and presented = ref 0 and misses = ref 0 in
        for a = lo to hi - 1 do
          (match heavy with
          | Some ((p : Partition.t), m) when p.x_index.(a) >= 0 ->
            let seeded = seed acc p m p.x_index.(a) in
            if obs then presented := !presented + seeded
          | Some _ | None -> Row_acc.start acc);
          Array.iter
            (fun b ->
              if all_light || light_y.(b) then begin
                let zs = Relation.adj_dst s b in
                let from =
                  if upper then Jp_util.Sorted.lower_bound zs (a + 1) else 0
                in
                if obs then begin
                  light_scans := !light_scans + Array.length zs - from;
                  presented := !presented + Array.length zs - from
                end;
                Row_acc.add_witnesses_from acc zs from
              end)
            (Relation.adj_src r a);
          misses := !misses + Row_acc.size acc;
          rows.(a) <- sink.emit acc
        done;
        ignore (Atomic.fetch_and_add met !misses);
        if obs then begin
          Obs.add Obs.C.light_probes !light_scans;
          Obs.add Obs.C.stamp_misses !misses;
          Obs.add Obs.C.stamp_hits (!presented - !misses)
        end
      in
      Jp_parallel.Pool.split_ranges ~domains ?cancel ~lo:0 ~hi:nx
        ~scratch:(fun () -> Row_acc.create ~counts:true (Relation.src_count s))
        run_rows;
      (sink.freeze rows, Atomic.get met))

(* Count matrices past this many cells fall back to the combinatorial
   heavy part. *)
let default_cell_cap = 200_000_000

(* The one counted frame: plan_counts' plan, its guard checkpoints, then
   either the all-light merge (Wcoj, combinatorial) or Section 3.1's
   split with Δ₂ = 0 — y is the only partitioned variable, and the count
   matrices span every endpoint adjacent to a heavy y.  Guard
   checkpoints (counts flavour): the entry budget degrades the heavy
   step to the combinatorial merge; a cost-honesty checkpoint re-plans a
   Partitioned decision whose est_seconds was injected; the cells budget
   tightens the cell cap, and a cell-cap fallback is recorded as a
   degradation.  There is no chunked |OUT| checkpoint because
   plan_counts' decision is insensitive to est_out (d2 is pinned), so
   only the mm-cost component of an injection can mislead it. *)
let counted ~span ~label ~sink ~domains ~strategy ?plan ~guard ?cancel ~memo
    ~tile ~matrix_cell_cap ~r ~s () =
  frame ~span ~label
    ~count:(fun (_, met) -> sink.out ~r met)
    ~plan_with:(fun ?est_out ?mm_cost_scale prep ->
      Optimizer.plan_counts_prepared ~domains ?est_out ?mm_cost_scale prep ())
    ?cancel ?plan ~strategy ~guard ~memo ~r ~s
    (fun ~g ~prep ~replan ~phases ~s ~strategy plan ->
      let cap =
        match (Guard.config g).Guard.budget.Guard.max_cells with
        | Some limit -> min matrix_cell_cap (limit / 3)
        | None -> matrix_cell_cap
      in
      let plan =
        match plan.Optimizer.decision with
        | Optimizer.Partitioned { d1; d2 }
          when strategy = Matrix && Guard.can_replan g ->
          let honest =
            Optimizer.estimate_cost_prepared ~domains
              ~kind:Jp_matrix.Cost.Count ~counts_mode:true (Lazy.force prep)
              (Optimizer.Partitioned { d1; d2 })
          in
          (match
             Guard.check_estimate g ~est:plan.Optimizer.est_seconds
               ~observed:honest
           with
          | Guard.Replan -> replan (Estimator.sampled ~r ~s ())
          | Guard.Continue | Guard.Degrade -> plan)
        | _ -> plan
      in
      let result =
        match (plan.Optimizer.decision, strategy) with
        | Optimizer.Wcoj, _ | _, Combinatorial ->
          phase phases "wcoj" (fun () ->
              count_merge ~sink ?cancel ~domains ~r ~s None)
        | Optimizer.Partitioned { d1; d2 = _ }, Matrix ->
          let p =
            phase phases "partition" (fun () ->
                Partition.make ?cancel ~r ~s ~d1 ~d2:0 ())
          in
          let u, v, w = Partition.dims p in
          let use_matrix = v > 0 && u * v <= cap && v * w <= cap && u * w <= cap in
          if not use_matrix then Guard.note_degrade g;
          let heavy =
            if not use_matrix then None
            else
              Some
                ( p,
                  phase phases "heavy-count-mm" (fun () ->
                      let checkpoint = tile_checkpoint ~domains g in
                      match sink.threshold with
                      | None ->
                        Full
                          (count_product ?cancel ?checkpoint ~tile ~memo
                             ~domains ~r ~s p)
                      | Some c ->
                        Upper
                          (upper_product ?cancel ?checkpoint ~c:(max 1 c)
                             ~tile ~memo ~domains ~r p)) )
          in
          Cancel.check_opt cancel;
          phase phases "count-merge" (fun () ->
              count_merge ~sink ?cancel ~domains ~r ~s heavy)
      in
      (result, plan))

let project_counts ?(domains = 1) ?(strategy = Matrix) ?plan
    ?(guard = Guard.inert) ?cancel ?(memo = no_memo) ?(tile = Jp_tile.config ())
    ?(matrix_cell_cap = default_cell_cap) ~r ~s () =
  fst
    (counted ~span:"two_path.project_counts" ~label:"two_path.counts"
       ~sink:counted_rows ~domains ~strategy ?plan ~guard ?cancel ~memo ~tile
       ~matrix_cell_cap ~r ~s ())

let ssj ?(domains = 1) ?plan ?(guard = Guard.inert) ?cancel ?(memo = no_memo)
    ~c r =
  fst
    (counted ~span:"two_path.ssj" ~label:"two_path.ssj" ~sink:(upper_rows ~c)
       ~domains ~strategy:Matrix ?plan ~guard ?cancel ~memo
       ~tile:(Jp_tile.config ()) ~matrix_cell_cap:default_cell_cap ~r ~s:r ())
