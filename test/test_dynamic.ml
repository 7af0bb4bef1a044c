module Relation = Testkit.Relation
module View = Jp_dynamic.View

let counted_list v = Gen.counted_to_list (View.to_counted_pairs v)

let test_init_matches_static () =
  let r = Gen.skewed_relation ~seed:501 ~nx:25 ~ny:20 ~edges:150 () in
  let s = Gen.skewed_relation ~seed:502 ~nx:22 ~ny:20 ~edges:130 () in
  let v = View.init ~r ~s () in
  Alcotest.(check (list (pair (pair int int) int)))
    "init = recomputation" (Gen.brute_two_path_counts ~r ~s) (counted_list v);
  Alcotest.(check int) "count" (List.length (Gen.brute_two_path ~r ~s)) (View.count v)

let test_single_deltas () =
  let v = View.create () in
  Alcotest.(check int) "empty" 0 (View.count v);
  View.insert_r v 1 10;
  Alcotest.(check int) "no partner yet" 0 (View.count v);
  View.insert_s v 7 10;
  Alcotest.(check bool) "pair appears" true (View.mem v 1 7);
  Alcotest.(check int) "one pair" 1 (View.count v);
  Alcotest.(check int) "one witness" 1 (View.witnesses v 1 7);
  (* a second witness *)
  View.insert_r v 1 11;
  View.insert_s v 7 11;
  Alcotest.(check int) "two witnesses" 2 (View.witnesses v 1 7);
  Alcotest.(check int) "still one pair" 1 (View.count v);
  (* duplicate insert is a no-op *)
  View.insert_r v 1 10;
  Alcotest.(check int) "idempotent" 2 (View.witnesses v 1 7);
  (* delete one witness: pair survives *)
  View.delete_r v 1 10;
  Alcotest.(check int) "one left" 1 (View.witnesses v 1 7);
  Alcotest.(check bool) "still member" true (View.mem v 1 7);
  (* delete the last witness: pair disappears *)
  View.delete_s v 7 11;
  Alcotest.(check bool) "gone" false (View.mem v 1 7);
  Alcotest.(check int) "empty again" 0 (View.count v);
  (* deleting an absent tuple is a no-op *)
  View.delete_r v 9 9;
  Alcotest.(check int) "noop delete" 0 (View.count v)

(* Random update streams must keep the view equal to recomputation. *)
let prop_random_updates =
  QCheck.Test.make ~name:"dynamic view = recomputation under random updates"
    ~count:40
    QCheck.(
      list_of_size (Gen.int_range 1 120)
        (quad bool bool (int_bound 10) (int_bound 8)))
    (fun ops ->
      let v = View.create () in
      (* shadow model: explicit tuple sets *)
      let r_set = Hashtbl.create 64 and s_set = Hashtbl.create 64 in
      List.iter
        (fun (is_r, is_insert, a, b) ->
          let set = if is_r then r_set else s_set in
          if is_insert then begin
            Hashtbl.replace set (a, b) ();
            if is_r then View.insert_r v a b else View.insert_s v a b
          end
          else begin
            Hashtbl.remove set (a, b);
            if is_r then View.delete_r v a b else View.delete_s v a b
          end)
        ops;
      let to_rel set =
        let edges = Hashtbl.fold (fun (a, b) () acc -> (a, b) :: acc) set [] in
        Relation.of_edges ~src_count:11 ~dst_count:9 (Array.of_list edges)
      in
      let expect = Gen.brute_two_path_counts ~r:(to_rel r_set) ~s:(to_rel s_set) in
      counted_list v = expect)

let test_update_after_init () =
  let r = Gen.random_relation ~seed:503 ~nx:15 ~ny:12 ~edges:60 () in
  let s = Gen.random_relation ~seed:504 ~nx:14 ~ny:12 ~edges:55 () in
  let v = View.init ~r ~s () in
  (* apply a batch of post-init updates and compare with recomputation *)
  let victim_x =
    let rec go x = if Relation.deg_src r x > 0 then x else go (x + 1) in
    go 0
  in
  let victim_y = (Relation.adj_src r victim_x).(0) in
  View.insert_r v 0 0;
  View.insert_s v 1 0;
  View.delete_r v victim_x victim_y;
  let r' =
    Relation.of_edges ~src_count:15 ~dst_count:12
      (Array.of_list
         ((0, 0)
         :: List.filter
              (fun (x, y) -> not (x = victim_x && y = victim_y))
              (Array.to_list (Relation.to_edges r))))
  in
  let s' =
    Relation.of_edges ~src_count:14 ~dst_count:12
      (Array.of_list ((1, 0) :: Array.to_list (Relation.to_edges s)))
  in
  Alcotest.(check (list (pair (pair int int) int)))
    "post-update = recomputation"
    (Gen.brute_two_path_counts ~r:r' ~s:s')
    (counted_list v)

let suite =
  [
    Alcotest.test_case "init matches static" `Quick test_init_matches_static;
    Alcotest.test_case "single deltas" `Quick test_single_deltas;
    QCheck_alcotest.to_alcotest prop_random_updates;
    Alcotest.test_case "updates after init" `Quick test_update_after_init;
  ]
