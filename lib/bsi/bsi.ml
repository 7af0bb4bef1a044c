module Relation = Jp_relation.Relation
module Partition = Joinproj.Partition
module Boolmat = Jp_matrix.Boolmat

type strategy = Mm | Combinatorial

let answer_one ~r ~s a b =
  if a >= Relation.src_count r || b >= Relation.src_count s then false
  else
    Jp_util.Sorted.intersect_count (Relation.adj_src r a) (Relation.adj_src s b) > 0

(* Cached amortization artifact (Section 5.3): one full-relation heavy
   partition and its boolean product, shared by every batch over the same
   (r, s).  Heavy-heavy queries whose product bit is set short-circuit to
   [true]; everything else falls back to the per-query merge scan —
   answers are identical to the uncached batch path either way. *)
type heavy_artifact = { h_part : Partition.t; h_product : Boolmat.t }

let heavy_tag : heavy_artifact Jp_cache.tag = Jp_cache.tag "bsi.heavy"

let artifact_bytes ~r ~s art =
  (Boolmat.rows art.h_product * ((Boolmat.cols art.h_product + 61) / 62) * 8)
  + (8 * (Relation.src_count r + Relation.src_count s))
  + 64

let heavy_artifact ~domains ~cache ~cancel ~r ~s =
  let prep = Jp_cache.prepared cache ~r ~s in
  let plan = Joinproj.Optimizer.plan_prepared ~domains prep () in
  match plan.Joinproj.Optimizer.decision with
  | Joinproj.Optimizer.Wcoj -> None
  | Joinproj.Optimizer.Partitioned { d1; d2 } -> (
    let key =
      Jp_cache.Key.of_relations ~kind:"bsi.heavy" ~params:[ d1; d2 ] [ r; s ]
    in
    match Jp_cache.find cache heavy_tag key with
    | Some art -> Some art
    | None ->
      let t0 = Jp_util.Timer.now () in
      let p = Partition.make ?cancel ~r ~s ~d1 ~d2 () in
      let product = Joinproj.Two_path.heavy_product ~domains ~r ~s p in
      let art = { h_part = p; h_product = product } in
      Jp_cache.put cache heavy_tag key ~bytes:(artifact_bytes ~r ~s art)
        ~cost_s:(Jp_util.Timer.now () -. t0) art;
      Some art)

let cached_answers ~domains ~cache ~cancel ~r ~s queries =
  let artifact = heavy_artifact ~domains ~cache ~cancel ~r ~s in
  Jp_obs.span "bsi.probe" (fun () ->
      Array.mapi
        (fun i (a, b) ->
          if i land 1023 = 0 then Jp_util.Cancel.check_opt cancel;
          let from_product =
            match artifact with
            | None -> false
            | Some art ->
              a < Array.length art.h_part.Partition.x_index
              && b < Array.length art.h_part.Partition.z_index
              &&
              let i = art.h_part.Partition.x_index.(a) in
              let l = art.h_part.Partition.z_index.(b) in
              i >= 0 && l >= 0 && Boolmat.mem art.h_product i l
          in
          from_product || answer_one ~r ~s a b)
        queries)

let answer_batch ?(domains = 1) ?(strategy = Mm) ?guard ?cancel ?cache ~r ~s
    queries =
  Jp_obs.span "bsi.answer_batch" (fun () ->
      Jp_util.Cancel.check_opt cancel;
      match (cache, strategy) with
      | Some cache, Mm -> cached_answers ~domains ~cache ~cancel ~r ~s queries
      | _ ->
        (* Filter both relations to the sets the batch mentions (Section
           3.3's "use the requests in the batch to filter R and S"). *)
        let rf, sf =
          Jp_obs.span "bsi.filter" (fun () ->
              let in_x = Array.make (Relation.src_count r) false in
              let in_z = Array.make (Relation.src_count s) false in
              Array.iter
                (fun (a, b) ->
                  if a < Array.length in_x then in_x.(a) <- true;
                  if b < Array.length in_z then in_z.(b) <- true)
                queries;
              ( Relation.restrict_src r (fun a -> in_x.(a)),
                Relation.restrict_src s (fun b -> in_z.(b)) ))
        in
        let pairs =
          match strategy with
          | Mm ->
            Joinproj.Two_path.project ~domains ?guard ?cancel ~r:rf ~s:sf ()
          | Combinatorial ->
            (* already the safe path; the guard has nothing to supervise *)
            Jp_wcoj.Expand.project ~domains ?cancel ~r:rf ~s:sf ()
        in
        Jp_obs.span "bsi.probe" (fun () ->
            Array.map (fun (a, b) -> Jp_relation.Pairs.mem pairs a b) queries))

let optimal_batch_size ~n ~rate =
  if n < 1 || rate <= 0.0 then invalid_arg "Bsi.optimal_batch_size";
  max 1 (int_of_float ((rate *. float_of_int n) ** 0.6))

let predicted_latency ~n ~rate ~batch_size =
  if batch_size < 1 || rate <= 0.0 then invalid_arg "Bsi.predicted_latency";
  let c = float_of_int batch_size in
  (c /. rate) +. (float_of_int n /. (c ** (2.0 /. 3.0)))

type stats = {
  batch_size : int;
  batches : int;
  avg_delay : float;
  max_delay : float;
  avg_processing : float;
  units_needed : float;
}

let simulate_impl ~domains ~strategy ~guard ~cancel ~cache ~r ~s ~queries
    ~rate ~batch_size =
  let n = Array.length queries in
  (* Arrival offsets come from the repo's one open-loop generator
     (fixed-rate: query i arrives exactly at i/rate, the schedule the
     delay model below assumes). *)
  let arrivals = Jp_workload.Arrivals.schedule ~rate ~count:n () in
  let batches = (n + batch_size - 1) / batch_size in
  let total_delay = ref 0.0 and max_delay = ref 0.0 and total_proc = ref 0.0 in
  for j = 0 to batches - 1 do
    let lo = j * batch_size in
    let hi = min n (lo + batch_size) in
    let batch = Array.sub queries lo (hi - lo) in
    let answers, proc =
      Jp_util.Timer.time (fun () ->
          answer_batch ~domains ~strategy ?guard ?cancel ?cache ~r ~s batch)
    in
    ignore answers;
    total_proc := !total_proc +. proc;
    (* the batch dispatches when its last query has arrived *)
    let dispatch = arrivals.(hi - 1) in
    for i = lo to hi - 1 do
      let delay = dispatch -. arrivals.(i) +. proc in
      total_delay := !total_delay +. delay;
      if delay > !max_delay then max_delay := delay
    done
  done;
  let period = float_of_int batch_size /. rate in
  let avg_processing = !total_proc /. float_of_int batches in
  {
    batch_size;
    batches;
    avg_delay = !total_delay /. float_of_int n;
    max_delay = !max_delay;
    avg_processing;
    units_needed = avg_processing /. period;
  }

let simulate ?(domains = 1) ?(strategy = Mm) ?guard ?cancel ?cache ~r ~s
    ~queries ~rate ~batch_size () =
  if batch_size < 1 then invalid_arg "Bsi.simulate: batch_size must be >= 1";
  if rate <= 0.0 then invalid_arg "Bsi.simulate: rate must be positive";
  Jp_obs.span "bsi.simulate" (fun () ->
      simulate_impl ~domains ~strategy ~guard ~cancel ~cache ~r ~s ~queries
        ~rate ~batch_size)
