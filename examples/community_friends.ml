(* Example 1 of the paper: a social graph with a few dense communities.
   The full join R(x,y) |><| R(z,y) has Θ(N^{3/2}) tuples but the
   projection ("user pairs with a common friend") is only Θ(N) — the
   regime where output-sensitive evaluation beats join-then-dedup.

   Run: dune exec examples/community_friends.exe *)

module Relation = Jp_relation.Relation
module Generate = Jp_workload.Generate

let () =
  let r = Generate.community_graph ~seed:11 ~communities:12 ~members:90 ~p_intra:0.6 () in
  let n = Relation.size r in
  let join_size = Relation.join_size_on_dst [ r; r ] in
  Printf.printf "N = %d edges; full join |OUT_join| = %s tuples\n" n
    (Jp_util.Tablefmt.big_int join_size);
  let (pairs, plan), t_mm =
    Jp_util.Timer.time (fun () ->
        let plan = Joinproj.Optimizer.plan ~r ~s:r () in
        (Joinproj.Two_path.project ~plan ~r ~s:r (), plan))
  in
  Printf.printf "|OUT| after projection = %s pairs (%.1fx smaller)\n"
    (Jp_util.Tablefmt.big_int (Jp_relation.Pairs.count pairs))
    (float_of_int join_size /. float_of_int (max 1 (Jp_relation.Pairs.count pairs)));
  Printf.printf "MMJoin: %s (%s)\n" (Jp_util.Tablefmt.seconds t_mm)
    (Joinproj.Optimizer.explain plan);
  let sm, t_sm =
    Jp_util.Timer.time (fun () -> Jp_baselines.Sortmerge_join.two_path ~r ~s:r)
  in
  assert (Jp_relation.Pairs.equal pairs sm);
  Printf.printf "sort-merge + dedup baseline: %s\n" (Jp_util.Tablefmt.seconds t_sm)
