(* The metric names and units every run prints.  A workload fills the
   ones it measures; a layer a workload does not exercise reads 0. *)

module Json = Jp_obs.Json

let end_to_end =
  [
    ("throughput_qps", "1/s");
    ("goodput_qps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms");
    ("latency_p99_ms", "ms");
    ("setup_s", "s");
    (* filled in by run.py from the measuring process's resource usage *)
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("optimizer.prepare_ms", "ms");
    ("optimizer.plan_ms", "ms");
    ("optimizer.mm_plans", "count");
    ("optimizer.est_out_ratio", "ratio");
    ("optimizer.est_seconds_ratio", "ratio");
    ("partition.make_ms", "ms");
    ("partition.heavy_cells", "count");
    ("heavy_mm.ms", "ms");
    ("heavy_mm.word_ops", "count");
    ("light_merge.ms", "ms");
    ("light_merge.probes", "count");
    ("light_merge.dup_ratio", "ratio");
    ("finalize.radix_bytes", "bytes");
    ("wcoj.expand_ms", "ms");
    ("count_mm.ms", "ms");
    ("count_mm.word_ops", "count");
    ("count_merge.ms", "ms");
    ("gc.alloc_mb_per_query", "MB");
    ("gc.major_collections", "per_1000q");
    ("service.queued_ms_p50", "ms");
    ("service.queued_ms_p99", "ms");
    ("service.ran_ms_p50", "ms");
    ("service.attempts_per_query", "count");
    ("overload.shed", "count");
    ("overload.expired", "count");
    ("cache.hit_ratio", "ratio");
    ("cache.evictions", "count");
    ("arrivals.late_ms_p99", "ms");
    ("tracing.overhead_pct", "%");
  ]

(* What a workload hands back to [Main]. *)
type outcome = {
  attempted : int;
  failed : int;
  wrong : int;  (** verified outputs that disagreed with the oracle *)
  metrics : (string * float) list;
  detail : (string * Json.t) list;  (** extra fields for the result file *)
}

(* The metrics object for one mode, in registry order. *)
let metrics_json registry values =
  Json.Obj
    (List.filter_map
       (fun (name, unit) ->
         match List.assoc_opt name values with
         | Some v -> Some (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ])
         | None when name = "peak_rss_mb" -> None
         | None -> Some (name, Json.Obj [ ("value", Json.Float 0.); ("unit", Json.String unit) ]))
       registry)
