(* Fixed workload parameters.  Nothing here is derived from a runtime
   measurement: query sizes, the served arrival rate, the deadline and
   the cache budget are constants, so two runs with the same seed offer
   the engines exactly the same work. *)

module Presets = Jp_workload.Presets

(* Set-up is repeated this many times per run and reported as the
   median. *)
let setup_repeats = 9

(* A run measures for --seconds, but never stops before it holds this
   many rounds clear of host bursts (see [Measure.Sentinel]), nor before every
   reported percentile has at least ten samples beyond it (1000 samples
   for p99).  If the samples are still short after [max_overrun] ×
   --seconds the run uses every round it has. *)
let min_rounds = 5

let max_overrun = 2.0

(* One dataset of an engine workload: [queries] seeded sub-relations
   whose share of the dataset's sets steps evenly from [lo] to [hi], so
   that query sizes, and hence latencies, form a continuum. *)
type spec = { dataset : Presets.name; queries : int; lo : float; hi : float }

let dense_2path =
  [
    { dataset = Presets.Jokes; queries = 25; lo = 0.12; hi = 0.30 };
    { dataset = Presets.Words; queries = 25; lo = 0.08; hi = 0.25 };
    { dataset = Presets.Protein; queries = 25; lo = 0.15; hi = 0.35 };
    { dataset = Presets.Image; queries = 25; lo = 0.15; hi = 0.35 };
  ]

let sparse_2path =
  [
    { dataset = Presets.Dblp; queries = 16; lo = 0.02; hi = 0.10 };
    { dataset = Presets.Roadnet; queries = 48; lo = 0.10; hi = 0.90 };
  ]

let counted_ssj =
  [
    { dataset = Presets.Jokes; queries = 25; lo = 0.08; hi = 0.22 };
    { dataset = Presets.Words; queries = 25; lo = 0.06; hi = 0.18 };
    { dataset = Presets.Protein; queries = 25; lo = 0.12; hi = 0.28 };
    { dataset = Presets.Image; queries = 25; lo = 0.12; hi = 0.28 };
  ]

(* served-open: Poisson arrivals at a fixed offered rate into a
   one-worker service with the overload controller, a deadline and a
   result cache whose byte budget is below the footprint of the distinct
   results, so it must evict. *)
let served_rate_qps = 100.0

let served_deadline_s = 0.5

let served_queue_capacity = 512

let served_cache_bytes = 1024 * 1024

(* Zipf exponent of the popularity of the pool's distinct queries. *)
let served_zipf = 0.5

(* The pool of distinct queries: each group runs one flavour on
   [queries] sub-relations of its dataset.  The CQs run on roadnet,
   where the decomposition planner's programs stay cheap. *)
type flavour = Mm | Nonmm | Ssj | Cq

let served_pool =
  [
    (Mm, { dataset = Presets.Jokes; queries = 32; lo = 0.03; hi = 0.08 });
    (Mm, { dataset = Presets.Image; queries = 32; lo = 0.03; hi = 0.08 });
    (Nonmm, { dataset = Presets.Words; queries = 32; lo = 0.03; hi = 0.08 });
    (Nonmm, { dataset = Presets.Protein; queries = 32; lo = 0.03; hi = 0.08 });
    (Ssj, { dataset = Presets.Jokes; queries = 32; lo = 0.03; hi = 0.08 });
    (Ssj, { dataset = Presets.Words; queries = 32; lo = 0.03; hi = 0.08 });
    (Cq, { dataset = Presets.Roadnet; queries = 64; lo = 0.01; hi = 0.04 });
  ]
