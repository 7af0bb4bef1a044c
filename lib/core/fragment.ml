module Relation = Jp_relation.Relation

type gate = { mm : bool; est_mm_s : float; est_safe_s : float }

let gate_two_path ?domains ~r ~s () =
  let prepared = Optimizer.prepare ~r ~s in
  let plan = Optimizer.plan_prepared ?domains prepared () in
  let est_safe_s =
    Optimizer.estimate_cost_prepared ?domains prepared Optimizer.Wcoj
  in
  match plan.Optimizer.decision with
  | Optimizer.Wcoj -> { mm = false; est_mm_s = infinity; est_safe_s }
  | Optimizer.Partitioned _ ->
    { mm = true; est_mm_s = plan.Optimizer.est_seconds; est_safe_s }

let gate_star ?domains rels =
  if Array.length rels < 2 then invalid_arg "Fragment.gate_star: arity < 2";
  (* The two largest relations dominate the heavy residue's matrix
     dimensions; gate on their pairwise 2-path plan. *)
  let best = ref 0 and second = ref 1 in
  if Relation.size rels.(1) > Relation.size rels.(0) then begin
    best := 1;
    second := 0
  end;
  for i = 2 to Array.length rels - 1 do
    let sz = Relation.size rels.(i) in
    if sz > Relation.size rels.(!best) then begin
      second := !best;
      best := i
    end
    else if sz > Relation.size rels.(!second) then second := i
  done;
  gate_two_path ?domains ~r:rels.(!best) ~s:rels.(!second) ()
