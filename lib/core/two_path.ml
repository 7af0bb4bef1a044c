module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Intmat = Jp_matrix.Intmat
module Vec = Jp_util.Vec
module Pool = Jp_parallel.Pool
module Row_acc = Jp_util.Row_acc
module Obs = Jp_obs
module Cancel = Jp_util.Cancel
module Guard = Jp_adaptive.Guard
module Inject = Jp_adaptive.Inject
module Tile = Jp_matrix.Tile
module Bitset = Jp_util.Bitset

type strategy = Matrix | Combinatorial

(* The boolean 2-path's heavy part, both halves in [heavy_y] order
   (indexed by [y_index]): each heavy y's S⁺ row as bits over [heavy_z]
   ([stride] words per heavy y), and each heavy y's light z.  A heavy
   x's product row is the OR of its heavy y's bit rows. *)
type heavy_rows = { stride : int; bits : int array; light_z : int array array }

(* Memoization hooks (consumed by [Jp_cache], which sits above this
   library in the dependency graph).  Each hook receives the builder for
   a deterministic intermediate — the prepared optimizer indexes, the
   heavy rows, or a heavy-part count product, identified by its
   thresholds — and may
   return a previously built value for the same (r, s, thresholds)
   instead of calling it.  A memo is specific to the (r, s) pair it was
   created for.  [no_memo] (the default) calls every builder directly. *)
type memo = {
  memo_prepared : (unit -> Optimizer.prepared) -> Optimizer.prepared;
  memo_heavy_rows : d1:int -> d2:int -> (unit -> heavy_rows) -> heavy_rows;
  memo_count_product : d1:int -> (unit -> Intmat.t) -> Intmat.t;
  memo_upper_product : d1:int -> (unit -> Intmat.t) -> Intmat.t;
}

let no_memo =
  {
    memo_prepared = (fun build -> build ());
    memo_heavy_rows = (fun ~d1:_ ~d2:_ build -> build ());
    memo_count_product = (fun ~d1:_ build -> build ());
    memo_upper_product = (fun ~d1:_ build -> build ());
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
   space).  The row function is pure, so [Tile] may call it again to
   rebuild an evicted tile. *)
let operand adj ids index ~cols =
  Tile.Source.of_mapped ~rows:(Array.length ids) ~cols
    (fun i -> adj ids.(i))
    index

(* The count product A·Bᵀ over bit-packed rows (62 multiply-adds per
   word op): A rows are x's heavy-y bitsets, B rows are z's heavy-y
   bitsets — S⁺ transposed, [heavy_z] rows over [y_index]. *)
let count_product ?cancel ~tile ~memo ~domains ~r ~s (p : Partition.t) =
  memo.memo_count_product ~d1:p.d1 (fun () ->
      let v = Array.length p.heavy_y in
      Tile.count_product ~domains ?cancel tile
        (operand (Relation.adj_src r) p.heavy_x p.y_index ~cols:v)
        (operand (Relation.adj_src s) p.heavy_z p.y_index ~cols:v))

(* The boolean product M{R⁺}·M{S⁺}: R⁺ as [heavy_x] rows over
   [y_index], S⁺ as [heavy_y] rows over [z_index], through [Tile].  The
   BSI fast path builds (and caches) it over a full-relation partition,
   answering heavy-heavy point queries straight from its bits; the
   2-path ORs the same rows inside its merge instead. *)
let heavy_product ?(domains = 1) ~r ~s (p : Partition.t) =
  let s = cover_dst ~r s in
  Obs.span "two_path.heavy_mm" (fun () ->
      Tile.mul ~domains (Tile.config ())
        (operand (Relation.adj_src r) p.heavy_x p.y_index
           ~cols:(Array.length p.heavy_y))
        (operand (Relation.adj_dst s) p.heavy_y p.z_index
           ~cols:(Array.length p.heavy_z)))

(* ------------------------------------------------------------------ *)
(* Boolean (dedup-only) evaluation                                     *)
(* ------------------------------------------------------------------ *)

(* The heavy part a partitioned merge joins besides the light lists:
   the heavy rows ORed into each heavy x's split row, or (combinatorial
   strategy) each heavy y's heavy-z list, expanded per heavy x. *)
type heavy_part =
  | Rows of heavy_rows
  | Expansion of { light_z : int array array; heavy_z : int array array }

(* One pass over each heavy y's S list, split by z: the per-x merge
   loop would otherwise rescan whole inverted lists just to filter them,
   degenerating to the full join when few values are light.  Every heavy
   z next to a heavy y has a column, so z_index < 0 exactly when z is
   light (deg(z) ≤ Δ₂): such a z joins the y's light-z list, and a heavy
   z sets its bit ([bits]) or joins the y's heavy-z list.  Returns the
   light-z lists, the bit rows (empty without [bits]) and the heavy-z
   lists (empty with [bits]). *)
let split_heavy_y ~bits ~s (p : Partition.t) =
  let v = Array.length p.heavy_y in
  let stride = if bits then Bitset.payload_words (Array.length p.heavy_z) else 0 in
  let words = Array.make (stride * v) 0 in
  let light_z = Array.make v [||] in
  let heavy_z = if bits then [||] else Array.make v [||] in
  let light = Vec.create () and heavy = Vec.create () in
  Array.iteri
    (fun i b ->
      let zs = Relation.adj_dst s b in
      for j = 0 to Array.length zs - 1 do
        let c = Array.unsafe_get zs j in
        let l = p.z_index.(c) in
        if l < 0 then Vec.push light c
        else if bits then begin
          let k = (i * stride) + (l / Bitset.bits_per_word) in
          words.(k) <- words.(k) lor (1 lsl (l mod Bitset.bits_per_word))
        end
        else Vec.push heavy c
      done;
      light_z.(i) <- Vec.to_array light;
      Vec.clear light;
      if not bits then begin
        heavy_z.(i) <- Vec.to_array heavy;
        Vec.clear heavy
      end)
    p.heavy_y;
  (light_z, stride, words, heavy_z)

let heavy_rows ~s p =
  Obs.span "two_path.heavy_rows" (fun () ->
      let light_z, stride, bits, _ = split_heavy_y ~bits:true ~s p in
      { stride; bits; light_z })

(* The merged per-x loop over rows [lo, hi): light contributions from
   R- |><| S and R |><| S-, plus the heavy part.  A heavy x under the
   heavy rows is a split row of [acc]: the bit rows of its heavy y are
   ORed into its columns (one per heavy z) — its product row, one word
   op per row word, as the matrix product counts them — then light ids
   with a column set it, and only light z are stamped; the row comes
   out as a merge of the two disjoint sorted halves.  Its seeded
   columns, for the stamp counters, are the product row's: the columns
   set before any light y's list is added.  Every other row (light x,
   or the combinatorial expansion) is a plain row.  A plain row with one
   list per y (no expansion lists) and at most two y is written
   directly: nothing for an x with no tuple, the list itself, or the
   union of two.  Its x is light or has no heavy y (a heavy x with one
   is a split row under the heavy rows, and not light under the
   expansion), so each of its lists is all of L(y).  The rest go
   through the stamps.  Each row is appended to [out], its length
   stored at [lengths.(x + 1)]. *)
let merge_range ~acc ~out ~lengths ~r ~s ~(p : Partition.t) ~heavy lo hi =
  let obs = Obs.recording () in
  let light_z = match heavy with Rows h -> h.light_z | Expansion e -> e.light_z in
  let scans = ref 0 and seeded = ref 0 and produced = ref 0 and ored = ref 0 in
  for a = lo to hi - 1 do
    let a_light = Relation.deg_src r a <= p.d2 in
    let ys = Relation.adj_src r a in
    let k = Array.length ys in
    let direct =
      k <= 2
      &&
      match heavy with
      | Rows _ -> p.x_index.(a) < 0
      | Expansion _ -> a_light
    in
    let n =
      if direct then
        if k = 0 then 0
        else begin
          let z0 = Relation.adj_dst s (Array.unsafe_get ys 0) in
          if k = 1 then begin
            if obs then scans := !scans + Array.length z0;
            Row_acc.one_list_into out z0
          end
          else begin
            let z1 = Relation.adj_dst s (Array.unsafe_get ys 1) in
            if obs then scans := !scans + Array.length z0 + Array.length z1;
            Row_acc.two_lists_into out z0 z1
          end
        end
      else begin
        (match heavy with
        | Rows h when p.x_index.(a) >= 0 ->
          (* A heavy x: each heavy y ORs in its bit row and stamps its
             light z, then each light y adds its whole list.  y_index
             spans R's y ids and is set exactly on heavy y. *)
          Row_acc.start_split acc ~index:p.z_index ~heavy:p.heavy_z;
          for j = 0 to k - 1 do
            let i = p.y_index.(Array.unsafe_get ys j) in
            if i >= 0 then begin
              Row_acc.or_words acc h.bits (i * h.stride) h.stride;
              incr ored;
              let zs = Array.unsafe_get h.light_z i in
              if obs then scans := !scans + Array.length zs;
              Row_acc.add_light acc zs
            end
          done;
          if obs then seeded := !seeded + Row_acc.columns acc;
          for j = 0 to k - 1 do
            let b = Array.unsafe_get ys j in
            if p.y_index.(b) < 0 then begin
              let zs = Relation.adj_dst s b in
              if obs then scans := !scans + Array.length zs;
              Row_acc.add_all acc zs
            end
          done
        | Rows _ | Expansion _ ->
          Row_acc.start acc;
          for j = 0 to k - 1 do
            let b = Array.unsafe_get ys j in
            if a_light || Partition.is_light_y p b then begin
              let zs = Relation.adj_dst s b in
              if obs then scans := !scans + Array.length zs;
              Row_acc.add_all acc zs
            end
            else begin
              let zs = light_z.(p.y_index.(b)) in
              if obs then scans := !scans + Array.length zs;
              Row_acc.add_light acc zs
            end
          done);
        (match heavy with
        | Expansion { heavy_z; _ } when not a_light ->
          for j = 0 to k - 1 do
            let b = Array.unsafe_get ys j in
            if not (Partition.is_light_y p b) then begin
              let zs = heavy_z.(p.y_index.(b)) in
              if obs then scans := !scans + Array.length zs;
              Row_acc.add_all acc zs
            end
          done
        | Expansion _ | Rows _ -> ());
        Row_acc.emit_into acc out
      end
    in
    lengths.(a + 1) <- n;
    produced := !produced + n
  done;
  if obs then begin
    (match heavy with
    | Rows h -> Obs.add Obs.C.mm_bool_word_ops (!ored * h.stride)
    | Expansion _ -> ());
    Obs.add Obs.C.light_probes !scans;
    Obs.add Obs.C.stamp_misses !produced;
    Obs.add Obs.C.stamp_hits (!seeded + !scans - !produced)
  end

(* Matrix cells the partition would materialize (u·v + v·w + u·w) — the
   intermediate-size quantity {!Guard.budget}'s [max_cells] bounds. *)
let partition_cells p =
  let u, v, w = Partition.dims p in
  (u * v) + (v * w) + (u * w)

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
   - per-chunk during the light merge (single-domain only): |OUT|
     extrapolation; a mid-merge re-plan resumes the new plan at the
     current row, keeping all finished rows;
   - exit (in [frame]): a time budget blown after entry marks the
     outcome degraded.  Past entry nothing cheaper than the running
     path remains, so a budget check inside the heavy product or the
     merge could only mark it too, and wall time only grows.

   Re-planning is always done with clean (un-injected) statistics and
   bounded by the guard's fuel, so the recursion terminates.  A cancel
   token is polled at these checkpoints and between merge chunks. *)
let execute ?cancel ~g ~prep ~replan ~domains ~strategy ~memo ~phases ~r
    ~s plan0 =
  let cfg = Guard.config g in
  let nx = Relation.src_count r in
  (* Effective chunk sizes: bounded by the config but scaled to the x
     domain, so dense datasets (few, large sets) still get a handful of
     checkpoints instead of finishing inside one chunk. *)
  let check_chunk = max 64 (min cfg.Guard.check_every (nx / 8)) in
  let probe = max 64 (min cfg.Guard.probe_rows (nx / 4)) in
  (* Every phase appends its rows, ascending in x, to output buffers
     kept in [chunks] (last first); row x's length goes to
     [lengths.(x + 1)].  On one domain every phase writes through the
     one scratch [seq], so the result is packed from one buffer. *)
  let lengths = Array.make (nx + 1) 0 in
  let chunks = ref [] in
  let keep out =
    match !chunks with o :: _ when o == out -> () | _ -> chunks := out :: !chunks
  in
  let produced () = List.fold_left (fun n o -> n + Vec.length o) 0 !chunks in
  let fresh () =
    (Row_acc.borrow (Relation.src_count s), Pairs.chunk ())
  in
  let seq = lazy (fresh ()) in
  (* Runs [body] over the x values [lo, hi) on [domains], keeping each
     worker's buffer in x order. *)
  let over lo hi body =
    Array.iter
      (fun (acc, out) ->
        if domains > 1 then Row_acc.release acc;
        keep out)
      (Pool.split_ranges ~domains ?cancel ~lo ~hi
         ~scratch:(if domains > 1 then fresh else fun () -> Lazy.force seq)
         body)
  in
  let strat = ref strategy in
  let expand_into lo hi =
    if hi > lo then
      phase phases "wcoj" (fun () ->
          Obs.span "wcoj.expand" (fun () ->
              over lo hi (fun (acc, out) l h ->
                  Jp_wcoj.Expand.expand_rows ~acc ~out ~lengths ~r ~s l h)))
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
      let obs_out = max 1 (produced () * nx / probe_hi) in
      match
        Guard.check_estimate g
          ~est:(float_of_int plan.Optimizer.est_out)
          ~observed:(float_of_int obs_out)
      with
      | Guard.Replan -> run (replan obs_out) probe_hi
      | (Guard.Continue | Guard.Degrade) when Guard.can_replan g ->
        let np =
          Optimizer.plan_prepared ~domains ~est_out:obs_out (Lazy.force prep) ()
        in
        let wcoj_cost =
          Optimizer.estimate_cost_prepared ~domains (Lazy.force prep)
            Optimizer.Wcoj
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
        Optimizer.estimate_cost_prepared ~domains (Lazy.force prep)
          (Optimizer.Partitioned { d1; d2 })
      in
      Guard.check_estimate g ~est:plan.Optimizer.est_seconds ~observed:honest
      = Guard.Replan
    in
    if replan_on_cost then
      run (replan (Estimator.sampled ~r ~s ())) lo
    else merge_partitioned plan ~p lo
  and merge_partitioned plan ~p lo =
    let rows =
      match !strat with
      | Matrix ->
        Some
          (phase phases "heavy-mm" (fun () ->
               memo.memo_heavy_rows ~d1:p.d1 ~d2:p.d2 (fun () -> heavy_rows ~s p)))
      | Combinatorial -> None
    in
    Cancel.check_opt cancel;
    let resume =
      phase phases "light-merge" (fun () ->
          Obs.span "two_path.light_merge" (fun () ->
              let heavy =
                match rows with
                | Some h -> Rows h
                | None ->
                  let light_z, _, _, heavy_z = split_heavy_y ~bits:false ~s p in
                  Expansion { light_z; heavy_z }
              in
              let merge (acc, out) lo hi = merge_range ~acc ~out ~lengths ~r ~s ~p ~heavy lo hi in
              if domains > 1 then begin
                (* Worker domains race past any sequential checkpoint, so
                   parallel merges keep only the plan-time and pre-MM
                   checks; the split still polls the cancel token. *)
                over lo nx merge;
                None
              end
              else begin
                let resume = ref None in
                let i = ref lo in
                let sc = Lazy.force seq in
                keep (snd sc);
                while !resume = None && !i < nx do
                  Cancel.check_opt cancel;
                  let hi = min nx (!i + check_chunk) in
                  merge sc !i hi;
                  i := hi;
                  if !i < nx then begin
                    let obs_out = max 1 (produced () * nx / !i) in
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
  if Lazy.is_val seq then Row_acc.release (fst (Lazy.force seq));
  Pairs.of_chunks ~lengths ~bound:(Relation.src_count s) (Array.of_list (List.rev !chunks))

(* The guard's injected |OUT| misestimation for the initial plan.  Without
   one the optimizer estimates |OUT| itself, inside its own span. *)
let injected_est_out inj prep =
  if inj.Inject.out_factor = 1.0 then None
  else Some (Inject.out inj (Estimator.estimate (Optimizer.summary prep)))

(* The frame both engines run in: the span, the timer, the guard, the
   memoized prepared planning state, the initial plan (which sees the guard's
   injected misestimation), the entry checkpoint, the clean re-planner,
   the exit budget mark and the plan-vs-actual record.  [run] returns
   the result with the plan to record. *)
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
      (* The one budget mark: a time budget blown after entry can only
         mark the outcome, and wall time only grows, so a mark at any
         earlier point implies this one. *)
      (match Guard.check_budget g ~cells:0 with
      | Guard.Degrade -> Guard.note_degrade g
      | Guard.Continue | Guard.Replan -> ());
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
    ?cancel ?(memo = no_memo) ~r ~s () =
  frame ~span:"two_path.project" ~label:"two_path" ~count:Pairs.count
    ~plan_with:(fun ?est_out ?mm_cost_scale prep ->
      Optimizer.plan_prepared ~domains ?est_out ?mm_cost_scale prep ())
    ?cancel ?plan ~strategy ~guard ~memo ~r ~s
    (fun ~g ~prep ~replan ~phases ~s ~strategy plan ->
      ( execute ?cancel ~g ~prep ~replan ~domains ~strategy ~memo ~phases ~r ~s plan,
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
type 'res sink = {
  threshold : int option;
  counts_chunk : unit -> Vec.t;  (** a chunk's multiplicity buffer *)
  emit : Row_acc.t -> zs:Vec.t -> counts:Vec.t -> int;
      (** appends the row's ids (and multiplicities) to the chunk's
          buffers; returns the row's length *)
  freeze : lengths:int array -> bound:int -> zs:Vec.t array -> counts:Vec.t array -> 'res;
  out : r:Relation.t -> int -> int;
}

let counted_rows =
  {
    threshold = None;
    counts_chunk = Pairs.chunk;
    emit = (fun acc ~zs ~counts -> Row_acc.emit_counts_into acc zs counts);
    freeze =
      (fun ~lengths ~bound ~zs ~counts -> Counted_pairs.of_chunks ~lengths ~bound zs counts);
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
    (* the rows keep no multiplicities *)
    counts_chunk = (fun () -> Vec.create ~capacity:1 ());
    emit = (fun acc ~zs ~counts:_ -> Row_acc.emit_ge_into acc c zs);
    freeze = (fun ~lengths ~bound ~zs ~counts:_ -> Pairs.of_chunks ~lengths ~bound zs);
    out = self_join_size;
  }

(* A counted run's heavy part: the full count matrix; or the SSJ's,
   the exact triangle of A·Aᵀ or the S⁺ bit rows the merge saturates
   into [c] planes per heavy x. *)
type counted_product = Full of Intmat.t | Triangle of Intmat.t | Planes of int * heavy_rows

(* The SSJ's heavy part over a self-join partition (heavy_z = heavy_x):
   only the cells (i, l) with l > i, and only as far as the threshold
   [c] needs them.  [Jp_matrix.Cost.ssj_kernel] prices the exact
   triangle (one AND+popcount per cell over the inner words) against
   [c] saturating planes (each heavy y's S⁺ bit row saturated into the
   planes of each of its heavy x, past the diagonal) from the product's
   shape and A's ones, nnz(A) = Σ deg(y) over heavy y (d₂ = 0 puts
   every endpoint of a heavy y in A).  Neither value depends on [c]:
   the triangle has a memo key of its own, and the bit rows are
   [project]'s heavy rows at (d1, 0), whose light-z lists are empty. *)
let ssj_product ?cancel ~c ~tile ~memo ~domains ~r ~s (p : Partition.t) =
  let u = Array.length p.heavy_x and v = Array.length p.heavy_y in
  let nnz = Array.fold_left (fun n y -> n + Relation.deg_dst r y) 0 p.heavy_y in
  match Jp_matrix.Cost.ssj_kernel (Jp_matrix.Cost.machine ()) ~c ~u ~v ~nnz with
  | Jp_matrix.Cost.Triangle ->
    Triangle
      (memo.memo_upper_product ~d1:p.d1 (fun () ->
           Obs.incr Obs.C.ssj_triangles;
           Tile.count_upper ~domains ?cancel tile
             (operand (Relation.adj_src r) p.heavy_x p.y_index ~cols:v)))
  | Jp_matrix.Cost.Planes ->
    Obs.incr Obs.C.ssj_planes;
    Planes (c, memo.memo_heavy_rows ~d1:p.d1 ~d2:0 (fun () -> heavy_rows ~s p))

(* Begins the counting split row of heavy x row [i], whose y are [ys],
   from the heavy part and returns its seeded columns: a full product
   row, the triangle's cells past the diagonal, or c planes into which
   the bit row of each of its heavy y is saturated past the diagonal.
   A plane row adds c·(⌈w/62⌉ − ⌊(i + 1)/62⌋) plane words per bit row
   to [plane_words], none on the last row, which has no column past
   the diagonal. *)
let seed_row acc ~plane_words (p : Partition.t) m ys i =
  match m with
  | Full m | Triangle m ->
    Row_acc.start_split_counts acc ~index:p.z_index ~heavy:p.heavy_z (Intmat.row m i)
  | Planes (c, h) ->
    Row_acc.start_planes acc ~index:p.z_index ~heavy:p.heavy_z ~first:(i + 1) c;
    if i + 1 < Array.length p.heavy_z then begin
      let ored = ref 0 in
      for j = 0 to Array.length ys - 1 do
        let k = p.y_index.(Array.unsafe_get ys j) in
        if k >= 0 then begin
          Row_acc.saturate_words acc h.bits (k * h.stride);
          incr ored
        end
      done;
      plane_words :=
        !plane_words + (!ored * c * (h.stride - ((i + 1) / Bitset.bits_per_word)))
    end;
    Row_acc.close_planes acc

(* The count merge over every x: the witnesses of its light y values
   plus its row of the heavy part, summed per z, since a pair's
   witnesses can be split between light and heavy y values.  A heavy
   x's row is a counting split row of [acc] ([seed_row]) — exact
   counts, or, from planes, min(h, c) past the diagonal — light
   witnesses of a heavy z add to its column, and only light z are
   stamped; the sink's emit thresholds both halves and merges them.
   Seeding min(h, c) is exact for the SSJ's threshold c: for every
   light count l ≥ 0, min(h, c) + l ≥ c exactly when h + l ≥ c.  Without a [heavy] (partition, product) every y is
   light: Wcoj plans, the combinatorial heavy part and the cell-cap
   fallback.  Each worker appends its rows to its own buffers, placed in
   x order at the end.  Returns the frozen rows and the number of pairs
   met before the sink's threshold. *)
let count_merge ~sink ?cancel ~domains ~r ~s heavy =
  Obs.span "two_path.count_merge" (fun () ->
      let nx = Relation.src_count r in
      let lengths = Array.make (nx + 1) 0 in
      let all_light, light_y =
        match heavy with
        | Some ((p : Partition.t), _) -> (false, p.light_y)
        | None -> (true, [||])
      in
      let met = Atomic.make 0 in
      let upper = sink.threshold <> None in
      let run_rows (acc, ids, mults) lo hi =
        let obs = Obs.recording () in
        let light_scans = ref 0 and presented = ref 0 and misses = ref 0 in
        let plane_words = ref 0 in
        for a = lo to hi - 1 do
          let ys = Relation.adj_src r a in
          (match heavy with
          | Some ((p : Partition.t), m) when p.x_index.(a) >= 0 ->
            let seeded = seed_row acc ~plane_words p m ys p.x_index.(a) in
            if obs then presented := !presented + seeded
          | Some _ | None -> Row_acc.start acc);
          for j = 0 to Array.length ys - 1 do
            let b = Array.unsafe_get ys j in
            if all_light || light_y.(b) then begin
              let zs = Relation.adj_dst s b in
              let from =
                if upper then begin
                  (* the z > x suffix, found by stepping back from the
                     end over ids the merge reads anyway *)
                  let i = ref (Array.length zs) in
                  while !i > 0 && Array.unsafe_get zs (!i - 1) > a do
                    decr i
                  done;
                  !i
                end
                else 0
              in
              if obs then begin
                light_scans := !light_scans + Array.length zs - from;
                presented := !presented + Array.length zs - from
              end;
              Row_acc.add_witnesses_from acc zs from
            end
          done;
          misses := !misses + Row_acc.size acc;
          lengths.(a + 1) <- sink.emit acc ~zs:ids ~counts:mults
        done;
        ignore (Atomic.fetch_and_add met !misses);
        if obs then begin
          Obs.add Obs.C.light_probes !light_scans;
          Obs.add Obs.C.stamp_misses !misses;
          Obs.add Obs.C.stamp_hits (!presented - !misses);
          if !plane_words > 0 then Obs.add Obs.C.mm_count_word_ops !plane_words
        end
      in
      let chunks =
        Pool.split_ranges ~domains ?cancel ~lo:0 ~hi:nx
          ~scratch:(fun () ->
            ( Row_acc.borrow ~counts:true (Relation.src_count s),
              Pairs.chunk (),
              sink.counts_chunk () ))
          run_rows
      in
      Array.iter (fun (acc, _, _) -> Row_acc.release acc) chunks;
      ( sink.freeze ~lengths ~bound:(Relation.src_count s)
          ~zs:(Array.map (fun (_, ids, _) -> ids) chunks)
          ~counts:(Array.map (fun (_, _, mults) -> mults) chunks),
        Atomic.get met ))

(* Count matrices past this many cells fall back to the combinatorial
   heavy part. *)
let cell_cap = 200_000_000

(* The one counted frame: plan_counts' plan, its guard checkpoints, then
   either the all-light merge (Wcoj, combinatorial) or Section 3.1's
   split with Δ₂ = 0 — y is the only partitioned variable, and the count
   matrices span every endpoint adjacent to a heavy y.  Guard
   checkpoints (counts flavour): the entry budget degrades the heavy
   step to the combinatorial merge; a cost-honesty checkpoint re-plans a
   Partitioned decision whose est_seconds was injected; the cells budget
   tightens the cell cap, and a cell-cap fallback is recorded as a
   degradation; the frame's exit mark records a blown time budget.
   There is no chunked |OUT| checkpoint because plan_counts' decision
   is insensitive to est_out (d2 is pinned), so only the mm-cost
   component of an injection can mislead it. *)
let counted ~span ~label ~sink ~domains ~strategy ?plan ~guard ?cancel ~memo
    ~tile ~r ~s () =
  frame ~span ~label
    ~count:(fun (_, met) -> sink.out ~r met)
    ~plan_with:(fun ?est_out ?mm_cost_scale prep ->
      Optimizer.plan_counts_prepared ~domains ?est_out ?mm_cost_scale prep ())
    ?cancel ?plan ~strategy ~guard ~memo ~r ~s
    (fun ~g ~prep ~replan ~phases ~s ~strategy plan ->
      let cap =
        match (Guard.config g).Guard.budget.Guard.max_cells with
        | Some limit -> min cell_cap (limit / 3)
        | None -> cell_cap
      in
      let plan =
        match plan.Optimizer.decision with
        | Optimizer.Partitioned { d1; d2 }
          when strategy = Matrix && Guard.can_replan g ->
          let honest =
            Optimizer.estimate_cost_prepared ~domains
              ~kind:Optimizer.Count (Lazy.force prep)
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
                      match sink.threshold with
                      | None ->
                        Full (count_product ?cancel ~tile ~memo ~domains ~r ~s p)
                      | Some c ->
                        ssj_product ?cancel ~c:(max 1 c) ~tile ~memo ~domains ~r ~s p)
                )
          in
          Cancel.check_opt cancel;
          phase phases "count-merge" (fun () ->
              count_merge ~sink ?cancel ~domains ~r ~s heavy)
      in
      (result, plan))

let project_counts ?(domains = 1) ?(strategy = Matrix) ?plan
    ?(guard = Guard.inert) ?cancel ?(memo = no_memo) ?(tile = Tile.config ())
    ~r ~s () =
  fst
    (counted ~span:"two_path.project_counts" ~label:"two_path.counts"
       ~sink:counted_rows ~domains ~strategy ?plan ~guard ?cancel ~memo ~tile
       ~r ~s ())

let ssj ?(domains = 1) ?plan ?(guard = Guard.inert) ?cancel ?(memo = no_memo)
    ~c r =
  fst
    (counted ~span:"two_path.ssj" ~label:"two_path.ssj" ~sink:(upper_rows ~c)
       ~domains ~strategy:Matrix ?plan ~guard ?cancel ~memo
       ~tile:(Tile.config ()) ~r ~s:r ())
