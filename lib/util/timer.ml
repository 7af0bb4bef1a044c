let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  (x, t1 -. t0)

let time_runs ?(repeats = 3) f =
  if repeats < 1 then invalid_arg "Timer.time_runs";
  let runs =
    List.init repeats (fun i ->
        let x, dt = time f in
        (dt, i, x))
  in
  (* Sort by (elapsed, run index): equal times resolve to the earlier run,
     and the returned value comes from the same run as the returned time. *)
  let sorted =
    List.sort
      (fun (a, i, _) (b, j, _) ->
        match Float.compare a b with 0 -> Int.compare i j | n -> n)
      runs
  in
  let dt, _, x = List.nth sorted (repeats / 2) in
  (x, dt, List.map (fun (dt, _, _) -> dt) runs)
