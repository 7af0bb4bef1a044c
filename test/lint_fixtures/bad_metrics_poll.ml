(* positive fixture: hot-poll — instrument updates per tuple (depth 2):
   a histogram observation, a gauge move and a gauge set inside the
   inner loop *)
let hist = Jp_obs.histogram "fixture.bad_metrics_seconds"

let depth = Jp_obs.gauge "fixture.bad_metrics_depth"

let scan (rows : float array array) =
  Array.iter
    (fun row ->
      Array.iter
        (fun v ->
          Jp_obs.observe hist v;
          Jp_obs.add depth 1;
          Jp_obs.set depth 0)
        row)
    rows
