(* Quickstart: evaluate a join-project query with MMJoin.

   Build:  dune build examples
   Run:    dune exec examples/quickstart.exe

   The query is the paper's running example
       Q(x, z) = R(x, y), S(z, y)   with projection on (x, z)
   i.e. "which (x, z) pairs share at least one y". *)

module Relation = Jp_relation.Relation
module Two_path = Joinproj.Two_path
module Optimizer = Joinproj.Optimizer

let () =
  (* A tiny relation, given as (x, y) edges.  Ids are dictionary-encoded
     ints; use your own encoding layer for real data. *)
  let r =
    Relation.of_edges
      [| (0, 10); (0, 11); (1, 10); (1, 12); (2, 11); (2, 12); (3, 13) |]
  in
  (* Self-join: which x pairs share a y?  The planner decides between the
     worst-case-optimal join and the matrix algorithm (Algorithm 3). *)
  let plan = Optimizer.plan ~r ~s:r () in
  let pairs = Two_path.project ~plan ~r ~s:r () in
  print_endline ("plan: " ^ Optimizer.explain plan);
  Printf.printf "|OUT| = %d pairs\n" (Jp_relation.Pairs.count pairs);
  Jp_relation.Pairs.iter (fun x z -> if x < z then Printf.printf "  (%d, %d)\n" x z) pairs;
  (* Larger skewed instance: force both strategies and compare times. *)
  let big =
    Jp_workload.Generate.set_family ~seed:7 ~sets:8_000 ~dom:6_000 ~avg_size:10
      ~min_size:1 ~max_size:200 ~element_exponent:0.8 ()
  in
  let (mm, plan), t_mm =
    Jp_util.Timer.time (fun () ->
        let plan = Optimizer.plan ~r:big ~s:big () in
        (Two_path.project ~plan ~r:big ~s:big (), plan))
  in
  let comb, t_comb =
    Jp_util.Timer.time (fun () ->
        Two_path.project ~strategy:Two_path.Combinatorial ~r:big ~s:big ())
  in
  assert (Jp_relation.Pairs.equal mm comb);
  print_endline ("bigger instance plan: " ^ Optimizer.explain plan);
  Printf.printf "MMJoin %s vs combinatorial %s (same %d pairs)\n"
    (Jp_util.Tablefmt.seconds t_mm)
    (Jp_util.Tablefmt.seconds t_comb)
    (Jp_relation.Pairs.count mm)
