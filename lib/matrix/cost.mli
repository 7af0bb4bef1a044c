(** Matrix-multiplication cost models.

    Two layers, mirroring the paper:

    - The {e theoretical} rectangular cost of Lemma 1,
      [M(U,V,W) = U·V·W·β^(ω−3)] with [β = min(U,V,W)], at the ω = 3
      of the kernel implemented here (Section 3's closed-form
      thresholds, [Optimizer.theoretical_thresholds], assume ω = 2
      instead).

    - The {e machine-calibrated} estimator M̂ of Section 5 (Table 1):
      measured per-word constants of the engine's kernels, times the
      words each product runs.  Two product prices remain: the count
      product's AND+popcount words ({!count_product_seconds}, cubic in
      its shape, like the paper's Eigen), and the row-OR of S⁺ bit rows
      that the boolean 2-path's and the SSJ planes' merges run
      ({!row_or_seconds}, and {!ssj_kernel}'s planes), which is linear
      in the ones of R⁺.  The probes run {!Tile.mul} and
      {!Tile.count_product} themselves on one square tile and divide by
      the words the kernels count ({!probe}).  The one kernel choice
      priced here is the set-similarity join's ({!ssj_kernel}): exact
      triangle or saturating planes, from the same two constants.

    The same calibration pass also measures the paper's Table-1 machine
    constants [Ts] (sequential access), [Tm] (allocation) and [TI] (random
    access/insert), which Algorithm 3 combines with the index statistics to
    cost the combinatorial part of the join; [TI] is timed on the
    stamp-vector expansion, [Jp_wcoj.Expand.project].

    The engine kernels publish spans and counters while [Jp_obs]
    records, so calibrate outside recording: force {!machine} before
    [Jp_obs.enable], or a traced run's first query pays for it and its
    counters hold the probes' work.  Calibration itself never reads or
    writes the [Jp_obs] registry. *)

val lemma1 : u:int -> v:int -> w:int -> float
(** [lemma1 ~u ~v ~w] is the Lemma-1 operation count [u·v·w·β^(ω−3)]
    at ω = 3, the classical kernel implemented here: [u·v·w], and 0
    when a dimension is empty. *)

type machine = {
  ts : float;  (** seconds per sequential [int array] read *)
  tm : float;  (** seconds per 32 bytes allocated *)
  ti : float;  (** seconds per random access + insert *)
  count_word : float;
      (** seconds per 62-bit AND+popcount word of a count tile *)
  bool_word : float;  (** seconds per 62-bit word OR of a boolean tile *)
  cores : int;  (** cores available on this machine *)
}
(** Measured machine constants (Table 1 of the paper). *)

(** The constants timed on an engine kernel. *)
type constant =
  | Ti  (** [Jp_wcoj.Expand.project] *)
  | Count_word  (** {!Tile.count_product} *)
  | Bool_word  (** {!Tile.mul} *)

type probe = {
  counter : string;
      (** the [Jp_obs] counter the kernel records its work on *)
  work : int;
      (** that counter's growth over one [run], computed from the
          operands: the probe's divisor *)
  run : unit -> unit;  (** one call of the kernel on the probe's operands *)
}

val probe : quick:bool -> constant -> probe
(** [probe ~quick c] builds the seeded operands that {!calibrate} times
    [c] on: a 96×96 pair ([quick]) or 256×256 pair of density 0.6 for
    the word constants, whose divisors are Σ ones(A)·⌈p/62⌉
    ([mm.bool_word_ops]) and p²·⌈p/62⌉ ([mm.count_word_ops]); for [Ti],
    random adjacency of about 2·10⁵ ([quick]) or 2·10⁶ join tuples,
    whose divisor is Σ deg, the lists the expansion scans
    ([light.probes]). *)

val calibrate : ?quick:bool -> unit -> machine
(** Runs the micro-benchmarks and returns fresh constants, each the time
    of one run of its {!probe}, after an untimed first run, over the
    probe's [work].  [quick]
    (default true) keeps the probe sizes small (a few milliseconds total);
    [quick:false] uses larger probes for tighter estimates. *)

val machine : unit -> machine
(** Lazily calibrated singleton used by the optimizer. *)

val set_machine : machine -> unit
(** Overrides the singleton (tests use this to make optimizer decisions
    deterministic). *)

val load_machine : string -> (machine, string) result
(** Reads a pinned machine record: a JSON object with the numbers [ts],
    [tm], [ti], [count_word], [bool_word] and [cores] (other members,
    such as perfbench's [sentinel_s], are ignored).  [Error] names the
    file and what is wrong with it. *)

val count_product_seconds :
  machine -> u:int -> v:int -> w:int -> cores:int -> float
(** [count_product_seconds m ~u ~v ~w ~cores] estimates wall seconds to
    count-multiply [u×v · v×w] with {!Tile.count_product} on [cores]
    cores: u·w·v/62 AND+popcount words at [count_word], split over the
    cores, plus the construction cost [C] of Section 3.1 at [tm] per
    cell of the larger operand. *)

val row_or_seconds : machine -> v:int -> w:int -> nnz:int -> float
(** [row_or_seconds m ~v ~w ~nnz] estimates the seconds of the boolean
    2-path's heavy part with [v] heavy y, [w] heavy z and [nnz] ones in
    R⁺: each one selects the S⁺ bit row of its y and ORs its ⌈w/62⌉
    words into its x's row, which is what [mm.bool_word_ops] counts
    (nnz·⌈w/62⌉).  At [bool_word], a one costs the planes' selection
    multiplier plus their per-word multiplier per word (one plane, the
    full row, no diagonal: {!ssj_kernel}'s price of the same rows);
    the v bit rows of ⌈w/62⌉ words cost [tm] per 4 words.  Not split
    over cores: the ORs run inside the merge, as the light part does. *)

(** The set-similarity join's heavy kernel: [Tile.count_upper]'s
    exact strict upper triangle of A·Aᵀ, or thermometer planes
    saturated at c, which the SSJ's count merge builds per heavy x from
    the S⁺ bit rows of its heavy y. *)
type ssj_kernel = Triangle | Planes

val ssj_kernel : machine -> c:int -> u:int -> v:int -> nnz:int -> ssj_kernel
(** [ssj_kernel m ~c ~u ~v ~nnz] prices the SSJ's heavy product of a
    u×v operand A with nnz ones at threshold c both ways and returns the
    cheaper kernel; ties go to the triangle.  The triangle pays each of
    its u(u−1)/2 cells a fixed overhead plus one AND+popcount per inner
    payload word, and one operand build, at [count_word]; the planes pay
    c plane words per one of A over the words past the diagonal (the
    average row's share of a u-wide upper result), plus the one's bit in
    the S⁺ rows and its row's selection, at [bool_word].  The
    multipliers are fitted to the two kernels' measured times.  A pure
    function of its arguments: no flag or environment variable picks
    the kernel. *)
