(* Open-loop arrival schedules. Pure (no clock, no Unix dependency):
   schedules are arrays of offsets, pacing is injected into [drive]. *)

module Rng = Jp_util.Rng

type process = Fixed_rate | Poisson

let process_to_string = function
  | Fixed_rate -> "fixed"
  | Poisson -> "poisson"

let schedule ?(process = Fixed_rate) ?(seed = 0) ~rate ~count () =
  if not (rate > 0.) then invalid_arg "Arrivals.schedule: rate must be > 0";
  if count < 0 then invalid_arg "Arrivals.schedule: count must be >= 0";
  match process with
  | Fixed_rate -> Array.init count (fun i -> float_of_int i /. rate)
  | Poisson ->
      let rng = Rng.create seed in
      let t = ref 0. in
      Array.init count (fun i ->
          if i > 0 then begin
            (* Exponential interarrival with mean 1/rate by inversion.
               [Rng.float] draws from [0, 1), so [1 - u] is in (0, 1] and
               the log is finite. *)
            let u = Rng.float rng 1.0 in
            t := !t +. (-.log (1.0 -. u) /. rate)
          end;
          !t)

let sweep ~lo ~hi ~steps =
  if not (lo > 0.) then invalid_arg "Arrivals.sweep: lo must be > 0";
  if hi < lo then invalid_arg "Arrivals.sweep: hi must be >= lo";
  if steps < 1 then invalid_arg "Arrivals.sweep: steps must be >= 1";
  if steps = 1 then [| hi |]
  else
    let ratio = (hi /. lo) ** (1.0 /. float_of_int (steps - 1)) in
    Array.init steps (fun i ->
        if i = steps - 1 then hi (* exact endpoint, no drift from ** *)
        else lo *. (ratio ** float_of_int i))

let drive ~now ~sleep ~schedule submit =
  let start = now () in
  Array.iteri
    (fun i offset ->
      let due = start +. offset in
      let wait = due -. now () in
      if wait > 0. then sleep wait;
      submit i)
    schedule;
  start
