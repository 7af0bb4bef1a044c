(* Graph analytics (Section 1): extract the co-author graph
       V(x, y) = R(x, p), R(y, p)
   from a DBLP-style author-paper table without materializing the full
   join, and list the strongest collaborations via the ordered variant.

   Run: dune exec examples/coauthor_graph.exe *)

module Relation = Jp_relation.Relation
module Presets = Jp_workload.Presets

let () =
  (* DBLP-shaped synthetic bibliography: authors are sets of papers. *)
  let r = Presets.load ~scale:0.3 Presets.Dblp in
  let ch = Presets.characteristics r in
  Printf.printf "bibliography: %d author-paper tuples, %d authors, %d papers\n"
    ch.Presets.tuples ch.Presets.sets ch.Presets.dom;
  (* The co-author view through MMJoin... *)
  let (coauthors, plan), t =
    Jp_util.Timer.time (fun () ->
        let plan = Joinproj.Optimizer.plan ~r ~s:r () in
        (Joinproj.Two_path.project ~plan ~r ~s:r (), plan))
  in
  Printf.printf "co-author graph: %d directed edges in %s (%s)\n"
    (Jp_relation.Pairs.count coauthors)
    (Jp_util.Tablefmt.seconds t)
    (Joinproj.Optimizer.explain plan);
  (* ...and through a conventional hash join, for comparison. *)
  let baseline, t_base =
    Jp_util.Timer.time (fun () -> Jp_baselines.Hash_join.two_path ~r ~s:r)
  in
  assert (Jp_relation.Pairs.equal coauthors baseline);
  Printf.printf "hash-join baseline: same graph in %s\n" (Jp_util.Tablefmt.seconds t_base);
  (* Strongest collaborations = pairs with most shared papers: the counted
     join gives the multiplicities for free. *)
  let ordered = Jp_ssj.Ordered.via_counts ~c:2 r in
  print_endline "top collaborations (author, author, shared papers):";
  Array.iteri
    (fun i (a, b, k) -> if i < 5 then Printf.printf "  %d -- %d : %d papers\n" a b k)
    ordered
