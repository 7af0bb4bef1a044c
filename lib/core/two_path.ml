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
}

let no_memo =
  {
    memo_prepared = (fun build -> build ());
    memo_bool_product = (fun ~d1:_ ~d2:_ build -> build ());
    memo_count_product = (fun ~d1:_ build -> build ());
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
  Jp_tile.Source.of_adjacency ~rows:(Array.length ids) ~cols (fun i f ->
      Array.iter
        (fun b ->
          let j = index.(b) in
          if j >= 0 then f j)
        (adj ids.(i)))

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

(* Public alias: the BSI fast path builds (and caches) the same product
   over a full-relation partition, answering heavy-heavy point queries
   straight from its bits. *)
let heavy_product ?(domains = 1) ~r ~s p =
  bool_product ~tile:(Jp_tile.config ()) ~memo:no_memo ~domains ~r
    ~s:(cover_dst ~r s) p

(* ------------------------------------------------------------------ *)
(* Boolean (dedup-only) evaluation                                     *)
(* ------------------------------------------------------------------ *)

(* For heavy y values, pre-split S's inverted list into its light-z and
   heavy-z halves once (O(N)); the per-x merge loop would otherwise rescan
   whole inverted lists just to filter them, degenerating to the full join
   when few values are light. *)
let split_heavy_s ~s (p : Partition.t) =
  let ny = Relation.dst_count s in
  let s_light_of_heavy_y = Array.make ny [||] in
  let s_heavy_of_heavy_y = Array.make ny [||] in
  Array.iter
    (fun b ->
      let light = Vec.create () and heavy = Vec.create () in
      Array.iter
        (fun c ->
          if Relation.deg_src s c <= p.d2 then Vec.push light c
          else Vec.push heavy c)
        (Relation.adj_dst s b);
      s_light_of_heavy_y.(b) <- Vec.to_array light;
      s_heavy_of_heavy_y.(b) <- Vec.to_array heavy)
    p.heavy_y;
  (s_light_of_heavy_y, s_heavy_of_heavy_y)

(* The merged per-x loop over rows [lo, hi): light contributions from
   R- |><| S and R |><| S-, heavy contributions from the matrix product
   (or from a heavy-restricted expansion for the combinatorial strategy),
   all deduplicated by the worker's row accumulator [acc], whose rows
   come out sorted.  Returns the number of pairs produced — the
   observed-output statistic guard checkpoints extrapolate from. *)
let merge_range ~acc ~r ~s ~(p : Partition.t) ~product ~s_light_of_heavy_y
    ~s_heavy_of_heavy_y ~rows lo hi =
  let obs = Obs.recording () in
  let light_scans = ref 0 and presented = ref 0 and produced = ref 0 in
  for a = lo to hi - 1 do
    Row_acc.start acc;
    let scan zs =
      if obs then begin
        light_scans := !light_scans + Array.length zs;
        presented := !presented + Array.length zs
      end;
      Row_acc.add_all acc zs
    in
    let a_light = Relation.deg_src r a <= p.d2 in
    Array.iter
      (fun b ->
        if a_light || Partition.is_light_y p b then
          scan (Relation.adj_dst s b)
        else
          (* heavy a, heavy b: only the S- tuples (light z) are
             joined here; heavy z is the matrix part's job *)
          scan s_light_of_heavy_y.(b))
      (Relation.adj_src r a);
    (match product with
    | Some m ->
      let i = p.x_index.(a) in
      if i >= 0 then begin
        if obs then presented := !presented + Boolmat.row_nnz m i;
        Boolmat.iter_row m i (fun l -> Row_acc.add acc p.heavy_z.(l))
      end
    | None ->
      if not a_light then
        Array.iter
          (fun b ->
            if not (Partition.is_light_y p b) then
              scan s_heavy_of_heavy_y.(b))
          (Relation.adj_src r a));
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
              let s_light_of_heavy_y, s_heavy_of_heavy_y = split_heavy_s ~s p in
              let merge acc lo hi =
                merge_range ~acc ~r ~s ~p ~product ~s_light_of_heavy_y
                  ~s_heavy_of_heavy_y ~rows lo hi
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

let project_with_plan_info ?(domains = 1) ?(strategy = Matrix) ?guard ?cancel
    ?tile ~r ~s () =
  let plan = Optimizer.plan ~domains ~kind:Jp_matrix.Cost.Boolean ~r ~s () in
  (project ~domains ~strategy ~plan ?guard ?cancel ?tile ~r ~s (), plan)

(* ------------------------------------------------------------------ *)
(* Exact-count evaluation (partition on the join variable only)        *)
(* ------------------------------------------------------------------ *)

(* Section 3.1's split with Δ₂ = 0: y is the only partitioned variable,
   and the count matrices span every endpoint adjacent to a heavy y.  A
   pair's witnesses can be split between light and heavy y values, so
   counts from the expansion and from the count-matrix product are summed
   per pair before freezing the row.  Also returns whether the count
   matrices were actually used — [false] means the cell cap forced the
   combinatorial fallback, which a guard records as a degradation. *)
let counted_partitioned ?cancel ?checkpoint ~tile ~phases ~domains ~memo ~r ~s
    ~d1 ~cap () =
  let p =
    phase phases "partition" (fun () ->
        Partition.make ?cancel ~r ~s ~d1 ~d2:0 ())
  in
  let u, v, w = Partition.dims p in
  let use_matrix = v > 0 && u * v <= cap && v * w <= cap && u * w <= cap in
  let product =
    if not use_matrix then None
    else
      Some
        (phase phases "heavy-count-mm" (fun () ->
             count_product ?cancel ?checkpoint ~tile ~memo ~domains ~r ~s p))
  in
  let treat_all_light = product = None in
  let nx = Relation.src_count r in
  let rows = Array.make nx ([||], [||]) in
  Cancel.check_opt cancel;
  phase phases "count-merge" (fun () ->
      Obs.span "two_path.count_merge" (fun () ->
          let run_rows acc lo hi =
            let obs = Obs.recording () in
            let light_scans = ref 0 and presented = ref 0 and misses = ref 0 in
            for a = lo to hi - 1 do
              Row_acc.start acc;
              Array.iter
                (fun b ->
                  if treat_all_light || p.light_y.(b) then begin
                    let zs = Relation.adj_dst s b in
                    if obs then begin
                      light_scans := !light_scans + Array.length zs;
                      presented := !presented + Array.length zs
                    end;
                    Row_acc.add_witnesses acc zs
                  end)
                (Relation.adj_src r a);
              (match product with
              | Some m ->
                let i = p.x_index.(a) in
                if i >= 0 then begin
                  let counts = Intmat.row m i in
                  for l = 0 to Array.length counts - 1 do
                    let k = counts.(l) in
                    if k > 0 then begin
                      if obs then Stdlib.incr presented;
                      Row_acc.add_count acc p.heavy_z.(l) k
                    end
                  done
                end
              | None -> ());
              let ((zs, _) as row) = Row_acc.emit_counts acc in
              if obs then misses := !misses + Array.length zs;
              rows.(a) <- row
            done;
            if obs then begin
              Obs.add Obs.C.light_probes !light_scans;
              Obs.add Obs.C.stamp_misses !misses;
              Obs.add Obs.C.stamp_hits (!presented - !misses)
            end
          in
          Jp_parallel.Pool.split_ranges ~domains ?cancel ~lo:0 ~hi:nx
            ~scratch:(fun () ->
              Row_acc.create ~counts:true (Relation.src_count s))
            run_rows;
          (Counted_pairs.of_rows_unchecked rows, use_matrix)))

let project_counts ?(domains = 1) ?(strategy = Matrix) ?plan
    ?(guard = Guard.inert) ?cancel ?(memo = no_memo) ?(tile = Jp_tile.config ())
    ?(matrix_cell_cap = 200_000_000) ~r ~s () =
  (* plan_counts' thresholds do not depend on est_out (d2 is pinned), so
     only the mm-cost component of an injection can mislead it — and the
     honesty checkpoint below catches it. *)
  frame ~span:"two_path.project_counts" ~label:"two_path.counts"
    ~count:Counted_pairs.count
    ~plan_with:(fun ?est_out ?mm_cost_scale prep ->
      Optimizer.plan_counts_prepared ~domains ?est_out ?mm_cost_scale prep ())
    ?cancel ?plan ~strategy ~guard ~memo ~r ~s
    (fun ~g ~prep ~replan ~phases ~s ~strategy plan ->
      (* Guard checkpoints (counts flavour): the entry budget degrades
         the heavy step to the combinatorial merge; a cost-honesty
         checkpoint re-plans a Partitioned decision whose est_seconds was
         injected; the cells budget tightens the cell cap.  There is no
         chunked |OUT| checkpoint here because plan_counts' decision is
         insensitive to est_out. *)
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
              Jp_wcoj.Expand.project_counts ~domains ?cancel ~r ~s ())
        | Optimizer.Partitioned { d1; d2 = _ }, Matrix ->
          let result, used_matrix =
            counted_partitioned ?cancel ~tile
              ?checkpoint:(tile_checkpoint ~domains g)
              ~phases ~domains ~memo ~r ~s ~d1 ~cap ()
          in
          if not used_matrix then Guard.note_degrade g;
          result
      in
      (result, plan))
