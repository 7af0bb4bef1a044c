(* negative fixture: hot-poll — the sanctioned instrument cadence:
   accumulate locally inside the inner loop, record once per row (loop
   depth 1) and take one snapshot at the phase boundary *)
let hist = Jp_obs.histogram "fixture.ok_metrics_seconds"

let depth = Jp_obs.gauge "fixture.ok_metrics_depth"

let scan (rows : float array array) =
  Array.iter
    (fun row ->
      let total = ref 0.0 in
      Array.iter (fun v -> total := !total +. v) row;
      Jp_obs.observe hist !total;
      Jp_obs.set depth (Array.length row))
    rows;
  Jp_obs.snapshot ()
