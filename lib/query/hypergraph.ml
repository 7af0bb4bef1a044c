module SS = Set.Make (String)

type join_tree = { order : int list; parent : int array }

(* GYO: node e is an ear iff the variables it shares with the rest of the
   hypergraph are all contained in some single other node f (its parent).
   Variables private to e are irrelevant. *)
let join_tree_sets var_lists =
  let sets = Array.map SS.of_list var_lists in
  let n = Array.length sets in
  if n = 0 then None
  else begin
    let alive = Array.make n true in
    let parent = Array.make n (-1) in
    let order = ref [] in
    let removed = ref 0 in
    let shared_with_rest e =
      let acc = ref SS.empty in
      Array.iteri
        (fun f vf -> if f <> e && alive.(f) then acc := SS.union !acc (SS.inter sets.(e) vf))
        sets;
      !acc
    in
    let find_ear () =
      let found = ref None in
      (try
         Array.iteri
           (fun e _ ->
             if alive.(e) && !found = None then begin
               let shared = shared_with_rest e in
               (* candidate parents: any other alive atom covering [shared] *)
               Array.iteri
                 (fun f vf ->
                   if f <> e && alive.(f) && !found = None && SS.subset shared vf
                   then begin
                     found := Some (e, f);
                     raise Exit
                   end)
                 sets
             end)
           sets
       with Exit -> ());
      !found
    in
    let continue = ref true in
    while !continue && !removed < n - 1 do
      match find_ear () with
      | Some (e, f) ->
        alive.(e) <- false;
        parent.(e) <- f;
        order := e :: !order;
        incr removed
      | None -> continue := false
    done;
    if !removed < n - 1 then None
    else begin
      (* the last alive atom is the root *)
      let root = ref (-1) in
      Array.iteri (fun e a -> if a then root := e) alive;
      Some { order = List.rev (!root :: !order); parent }
    end
  end

let join_tree q =
  join_tree_sets (Array.of_list (List.map Cq.atom_vars q.Cq.body))
