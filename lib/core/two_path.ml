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
  memo_bool_tile :
    d1:int ->
    d2:int ->
    tile_bits:int ->
    ti:int ->
    tj:int ->
    (unit -> Boolmat.t) ->
    Boolmat.t;
  memo_count_tile :
    d1:int ->
    tile_bits:int ->
    ti:int ->
    tj:int ->
    (unit -> Intmat.t) ->
    Intmat.t;
}

let no_memo =
  {
    memo_prepared = (fun build -> build ());
    memo_bool_product = (fun ~d1:_ ~d2:_ build -> build ());
    memo_count_product = (fun ~d1:_ build -> build ());
    memo_bool_tile =
      (fun ~d1:_ ~d2:_ ~tile_bits:_ ~ti:_ ~tj:_ build -> build ());
    memo_count_tile = (fun ~d1:_ ~tile_bits:_ ~ti:_ ~tj:_ build -> build ());
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

(* ------------------------------------------------------------------ *)
(* Boolean (dedup-only) evaluation                                     *)
(* ------------------------------------------------------------------ *)

(* Heavy adjacency matrices of R+ and S+ (Section 3.1): rows/columns are
   the pruned heavy value lists of the partition. *)
let heavy_matrices ~domains ~r ~s (p : Partition.t) =
  Obs.span "two_path.heavy_mm" (fun () ->
      let m1 =
        Boolmat.create ~rows:(Array.length p.heavy_x)
          ~cols:(Array.length p.heavy_y)
      in
      Array.iteri
        (fun i a ->
          Array.iter
            (fun b ->
              let j = p.y_index.(b) in
              if j >= 0 then Boolmat.set m1 i j)
            (Relation.adj_src r a))
        p.heavy_x;
      let m2 =
        Boolmat.create ~rows:(Array.length p.heavy_y)
          ~cols:(Array.length p.heavy_z)
      in
      Array.iteri
        (fun j b ->
          Array.iter
            (fun c ->
              let l = p.z_index.(c) in
              if l >= 0 then Boolmat.set m2 j l)
            (Relation.adj_dst s b))
        p.heavy_y;
      Boolmat.mul ~domains m1 m2)

(* A y that S does not have has no S tuples: widening S's y domain to
   R's once per call keeps every [adj_dst s b] below in bounds without
   per-tuple checks. *)
let cover_dst ~r s = Relation.widen_dst s (Relation.dst_count r)

(* Public alias: the BSI fast path builds (and caches) the same product
   over a full-relation partition, answering heavy-heavy point queries
   straight from its bits. *)
let heavy_product ?(domains = 1) ~r ~s p =
  heavy_matrices ~domains ~r ~s:(cover_dst ~r s) p

(* Tiled sibling of [heavy_matrices]: the operands are handed to
   [Jp_tile] as lazy adjacency sources, so the full M₁/M₂ are never
   materialized — tiles are built on demand and stream through the
   bounded resident store.  Deterministic in (r, s, thresholds,
   tile_bits), independent of domains and budget, and bit-equal to
   [heavy_matrices]. *)
let heavy_matrices_tiled ?cancel ?checkpoint ~tile ~memo ~domains ~r ~s
    (p : Partition.t) =
  Obs.span "two_path.heavy_mm" (fun () ->
      let u = Array.length p.heavy_x
      and v = Array.length p.heavy_y
      and w = Array.length p.heavy_z in
      let src_a =
        Jp_tile.Source.of_adjacency ~rows:u ~cols:v (fun i ->
            let bits = Vec.create () in
            Array.iter
              (fun b ->
                let j = p.y_index.(b) in
                if j >= 0 then Vec.push bits j)
              (Relation.adj_src r p.heavy_x.(i));
            Vec.to_array bits)
      in
      let src_b =
        Jp_tile.Source.of_adjacency ~rows:v ~cols:w (fun j ->
            let bits = Vec.create () in
            Array.iter
              (fun c ->
                let l = p.z_index.(c) in
                if l >= 0 then Vec.push bits l)
              (Relation.adj_dst s p.heavy_y.(j));
            Vec.to_array bits)
      in
      Jp_tile.mul ~domains ?cancel ?checkpoint
        ~memo:
          (memo.memo_bool_tile ~d1:p.Partition.d1 ~d2:p.Partition.d2
             ~tile_bits:tile.Jp_tile.tile_bits)
        tile src_a src_b)

(* The tiling gate: a [?tile] config applies when it forces tiling or
   the cost model agrees (operands big enough, or bigger than the
   configured resident budget). *)
let tiling tile kind ~u ~v ~w =
  match tile with
  | Some cfg
    when cfg.Jp_tile.force
         || Jp_matrix.Cost.should_tile ?budget_bytes:cfg.Jp_tile.budget_bytes
              kind ~u ~v ~w () ->
    Some cfg
  | _ -> None

(* The heavy boolean product behind the tiling gate: tiled, it streams
   through [Jp_tile] with per-tile memo keys; otherwise the flat kernel
   runs behind the whole-product memo hook. *)
let heavy_bool_product ?cancel ?checkpoint ~tile ~memo ~domains ~r ~s
    (p : Partition.t) =
  match
    tiling tile Jp_matrix.Cost.Boolean ~u:(Array.length p.heavy_x)
      ~v:(Array.length p.heavy_y) ~w:(Array.length p.heavy_z)
  with
  | Some cfg ->
    heavy_matrices_tiled ?cancel ?checkpoint ~tile:cfg ~memo ~domains ~r ~s p
  | None ->
    memo.memo_bool_product ~d1:p.Partition.d1 ~d2:p.Partition.d2 (fun () ->
        heavy_matrices ~domains ~r ~s p)

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
let partition_cells (p : Partition.t) =
  let u = Array.length p.heavy_x
  and v = Array.length p.heavy_y
  and w = Array.length p.heavy_z in
  (u * v) + (v * w) + (u * w)

(* Guard checkpoint that can only mark the outcome: the work it guards
   is already the cheapest path left. *)
let note_budget g =
  match Guard.check_budget g ~cells:0 with
  | Guard.Degrade -> Guard.note_degrade g
  | Guard.Continue | Guard.Replan -> ()

(* Algorithm 1 on [plan0], supervised by the guard [g].  Without a
   caller's guard [g] is {!Guard.inert}: every checkpoint answers
   [Continue] and this is the plain plan → partition → heavy MM → light
   merge pipeline.  Checkpoints (all once per chunk or phase, never per
   tuple):

   - entry: a zero time budget degrades before any work;
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
let execute ?cancel ?tile ~g ~prep ~domains ~strategy ~memo ~phases ~r ~s
    plan0 =
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
  let replan est_out =
    phase phases "replan" (fun () ->
        Guard.note_replan g;
        Optimizer.plan_prepared ~domains ~kind:Jp_matrix.Cost.Boolean ~est_out
          (Lazy.force prep) ())
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
        (* Guard checkpoints once per output tile, but only when the
           tiles run on the calling domain — worker domains race past
           sequential checkpoints (same rule as the chunked merge). *)
        let checkpoint =
          if domains > 1 then None else Some (fun () -> note_budget g)
        in
        Some
          (phase phases "heavy-mm" (fun () ->
               heavy_bool_product ?cancel ?checkpoint ~tile ~memo ~domains ~r
                 ~s p))
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
  (* Entry checkpoint: a zero (or already blown) time budget forbids
     matrix plans outright. *)
  Cancel.check_opt cancel;
  (match Guard.check_budget g ~cells:0 with
  | Guard.Degrade ->
    Guard.note_degrade g;
    strat := Combinatorial
  | Guard.Continue | Guard.Replan -> ());
  run plan0 0;
  Pairs.of_rows_unchecked rows

(* The guard's injected |OUT| misestimation for the initial plan.  Without
   one the optimizer estimates |OUT| itself, inside its own span. *)
let injected_est_out inj ~r ~s =
  if inj.Inject.out_factor = 1.0 then None
  else Some (Inject.out inj (Estimator.estimate ~r ~s))

let project ?(domains = 1) ?(strategy = Matrix) ?plan ?(guard = Guard.inert)
    ?cancel ?(memo = no_memo) ?tile ~r ~s () =
  let s = cover_dst ~r s in
  Obs.span "two_path.project" (fun () ->
      let t0 = Jp_util.Timer.now () in
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
              Optimizer.plan_prepared ~domains ~kind:Jp_matrix.Cost.Boolean
                ?est_out:(injected_est_out inj ~r ~s)
                ~mm_cost_scale:inj.Inject.mm_factor (Lazy.force prep) ())
      in
      let result =
        execute ?cancel ?tile ~g ~prep ~domains ~strategy ~memo ~phases ~r ~s
          plan
      in
      if Obs.recording () then
        Obs.record_plan ~label:"two_path" ~replanned:(Guard.replanned g)
          ~degraded:(Guard.degraded g)
          ~decision:(Optimizer.decision_to_string plan.decision)
          ~est_out:plan.est_out ~join_size:plan.join_size
          ~est_seconds:plan.est_seconds ~actual_out:(Pairs.count result)
          ~actual_seconds:(Jp_util.Timer.now () -. t0)
          ~phases:(List.rev !phases) ();
      result)

let project_with_plan_info ?(domains = 1) ?(strategy = Matrix) ?guard ?cancel
    ?tile ~r ~s () =
  let plan = Optimizer.plan ~domains ~kind:Jp_matrix.Cost.Boolean ~r ~s () in
  (project ~domains ~strategy ~plan ?guard ?cancel ?tile ~r ~s (), plan)

(* ------------------------------------------------------------------ *)
(* Exact-count evaluation (partition on the join variable only)        *)
(* ------------------------------------------------------------------ *)

(* A pair's witnesses can be split between light and heavy y values, so
   counts from the expansion and from the count-matrix product are summed
   per pair before freezing the row.  Also returns whether the count
   matrices were actually used — [false] means the cell cap forced the
   combinatorial fallback, which a guard records as a degradation. *)
let counted_partitioned ?cancel ?tile ?checkpoint ~phases ~domains ~memo ~r ~s
    ~d1 ~cap () =
  let ny = Relation.dst_count s in
  let deg_ry y = if y < Relation.dst_count r then Relation.deg_dst r y else 0 in
  let light_y =
    Array.init ny (fun y -> deg_ry y <= d1 || Relation.deg_dst s y <= d1)
  in
  (* Matrix dimensions: endpoints adjacent to at least one heavy y. *)
  let heavy_y = Vec.create () in
  Array.iteri (fun y light -> if not light then Vec.push heavy_y y) light_y;
  let heavy_y = Vec.to_array heavy_y in
  let touched rel =
    let seen = Array.make (Relation.src_count rel) false in
    Array.iter
      (fun b ->
        if b < Relation.dst_count rel then
          Array.iter (fun a -> seen.(a) <- true) (Relation.adj_dst rel b))
      heavy_y;
    let ids = Vec.create () in
    Array.iteri (fun a hit -> if hit then Vec.push ids a) seen;
    Vec.to_array ids
  in
  let hx = touched r and hz = touched s in
  let u = Array.length hx and v = Array.length heavy_y and w = Array.length hz in
  let use_matrix = v > 0 && u * v <= cap && v * w <= cap && u * w <= cap in
  let x_index = Array.make (Relation.src_count r) (-1) in
  Array.iteri (fun i a -> x_index.(a) <- i) hx;
  let product =
    if not use_matrix then None
    else
      phase phases "heavy-count-mm" (fun () ->
          (* The count product A·Bᵀ over bit-packed rows (62
             multiply-adds per word op): A rows are x's heavy-y bitsets,
             B rows are z's heavy-y bitsets. *)
          let heavy_row_fn () =
            let y_index = Array.make ny (-1) in
            Array.iteri (fun j b -> y_index.(b) <- j) heavy_y;
            fun rel a ->
              let bits = Vec.create () in
              Array.iter
                (fun b ->
                  let j = y_index.(b) in
                  if j >= 0 then Vec.push bits j)
                (Relation.adj_src rel a);
              Vec.to_array bits
          in
          match tiling tile Jp_matrix.Cost.Count ~u ~v ~w with
          | Some cfg ->
            (* Tiled: operands stream through [Jp_tile]'s bounded store
               and partial products memoize at tile granularity. *)
            let heavy_row = heavy_row_fn () in
            let src_a =
              Jp_tile.Source.of_adjacency ~rows:u ~cols:v (fun i ->
                  heavy_row r hx.(i))
            in
            let src_b =
              Jp_tile.Source.of_adjacency ~rows:w ~cols:v (fun l ->
                  heavy_row s hz.(l))
            in
            Some
              (Jp_tile.count_product ~domains ?cancel ?checkpoint
                 ~memo:(memo.memo_count_tile ~d1 ~tile_bits:cfg.Jp_tile.tile_bits)
                 cfg src_a src_b)
          | None ->
            Some
              (memo.memo_count_product ~d1 (fun () ->
                   (* The whole build sits inside the memo thunk: a hit
                      skips it. *)
                   let heavy_row = heavy_row_fn () in
                   let m1 =
                     Boolmat.of_adjacency ~rows:u ~cols:v (fun i ->
                         heavy_row r hx.(i))
                   in
                   let m2 =
                     Boolmat.of_adjacency ~rows:w ~cols:v (fun l ->
                         heavy_row s hz.(l))
                   in
                   Boolmat.count_product ~domains m1 m2)))
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
                  if treat_all_light || light_y.(b) then begin
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
                let i = x_index.(a) in
                if i >= 0 then
                  Array.iteri
                    (fun l c ->
                      let k = Intmat.get m i l in
                      if k > 0 then begin
                        if obs then Stdlib.incr presented;
                        Row_acc.add_count acc c k
                      end)
                    hz
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
    ?(guard = Guard.inert) ?cancel ?(memo = no_memo) ?tile
    ?(matrix_cell_cap = 200_000_000) ~r ~s () =
  let s = cover_dst ~r s in
  Obs.span "two_path.project_counts" (fun () ->
      let t0 = Jp_util.Timer.now () in
      Cancel.check_opt cancel;
      let phases = ref [] in
      let g = Guard.start guard in
      let prep = lazy (memo.memo_prepared (fun () -> Optimizer.prepare ~r ~s)) in
      (* plan_counts' thresholds do not depend on est_out (d2 is pinned),
         so only the mm-cost component of an injection can mislead it —
         and the honesty checkpoint below catches it. *)
      let plan =
        match plan with
        | Some p -> p
        | None ->
          let inj = Guard.inject g in
          phase phases "plan" (fun () ->
              Optimizer.plan_counts_prepared ~domains
                ?est_out:(injected_est_out inj ~r ~s)
                ~mm_cost_scale:inj.Inject.mm_factor (Lazy.force prep) ())
      in
      (* Guard checkpoints (counts flavour): entry/pre-MM budgets degrade
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
      let strategy =
        match Guard.check_budget g ~cells:0 with
        | Guard.Degrade ->
          Guard.note_degrade g;
          Combinatorial
        | Guard.Continue | Guard.Replan -> strategy
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
          | Guard.Replan ->
            phase phases "replan" (fun () ->
                Guard.note_replan g;
                Optimizer.plan_counts_prepared ~domains
                  ~est_out:(Estimator.sampled ~r ~s ())
                  (Lazy.force prep) ())
          | Guard.Continue | Guard.Degrade -> plan)
        | _ -> plan
      in
      let result =
        match (plan.Optimizer.decision, strategy) with
        | Optimizer.Wcoj, _ | _, Combinatorial ->
          phase phases "wcoj" (fun () ->
              Jp_wcoj.Expand.project_counts ~domains ?cancel ~r ~s ())
        | Optimizer.Partitioned { d1; d2 = _ }, Matrix ->
          (* Same per-tile checkpoint rule as the boolean path: only the
             calling domain may touch the guard. *)
          let checkpoint =
            if domains > 1 then None else Some (fun () -> note_budget g)
          in
          let result, used_matrix =
            counted_partitioned ?cancel ?tile ?checkpoint ~phases ~domains
              ~memo ~r ~s ~d1 ~cap ()
          in
          if not used_matrix then Guard.note_degrade g;
          result
      in
      if Obs.recording () then
        Obs.record_plan ~label:"two_path.counts" ~replanned:(Guard.replanned g)
          ~degraded:(Guard.degraded g)
          ~decision:(Optimizer.decision_to_string plan.Optimizer.decision)
          ~est_out:plan.Optimizer.est_out ~join_size:plan.Optimizer.join_size
          ~est_seconds:plan.Optimizer.est_seconds
          ~actual_out:(Counted_pairs.count result)
          ~actual_seconds:(Jp_util.Timer.now () -. t0)
          ~phases:(List.rev !phases) ();
      result)
