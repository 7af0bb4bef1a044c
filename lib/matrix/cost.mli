(** Matrix-multiplication cost models.

    Two layers, mirroring the paper:

    - The {e theoretical} rectangular cost of Lemma 1,
      [M(U,V,W) = U·V·W·β^(ω−3)] with [β = min(U,V,W)], used by the
      closed-form threshold analysis of Section 3.

    - The {e machine-calibrated} estimator [M̂(u,v,w,co)] of Section 5
      (Table 1): measured per-word constants of the one product kernel,
      [Jp_tile], extrapolated by the cubic cost formula — valid because
      the kernel, like the paper's Eigen, implements the (optimized)
      cubic algorithm with predictable running time.  This library sits
      below [jp_tile], so the probes time copies of its tile bodies'
      word loops ([Bitset.union_into] over the selected rows,
      [Bitset.inter_count] over row pairs) on one square tile, the shape
      of every product up to the tile cap.  The one kernel choice
      priced here is the set-similarity join's ({!ssj_kernel}): exact
      triangle or saturating planes, from the same two constants.

    The same calibration pass also measures the paper's Table-1 machine
    constants [Ts] (sequential access), [Tm] (allocation) and [TI] (random
    access/insert), which Algorithm 3 combines with the index statistics to
    cost the combinatorial part of the join. *)

type kind =
  | Count  (** [Jp_tile.count_product]: bit-sliced count product *)
  | Boolean  (** [Jp_tile.mul]: bit-packed boolean product *)

val lemma1 : ?omega:float -> u:int -> v:int -> w:int -> unit -> float
(** [lemma1 ~omega ~u ~v ~w] is the Lemma-1 operation count
    [u·v·w·β^(ω−3)].  Default [omega] is 3 (the classical kernel actually
    implemented here); pass 2.0 or 2.373 to reproduce the paper's
    theoretical analyses. *)

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

val calibrate : ?quick:bool -> unit -> machine
(** Runs the micro-benchmarks and returns fresh constants.  [quick]
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

val mhat : machine -> kind -> u:int -> v:int -> w:int -> cores:int -> float
(** [mhat m kind ~u ~v ~w ~cores] estimates wall seconds to multiply
    [u×v · v×w] with the given kernel on [cores] cores, including the
    matrix-construction cost [C] (Section 3.1). *)

(** The set-similarity join's heavy kernel: [Jp_tile.count_upper]'s
    exact strict upper triangle of A·Aᵀ, or [Jp_tile.upper_planes]'
    thermometer planes, saturated at c. *)
type ssj_kernel = Triangle | Planes

val ssj_kernel : machine -> c:int -> u:int -> v:int -> nnz:int -> ssj_kernel
(** [ssj_kernel m ~c ~u ~v ~nnz] prices the SSJ's heavy product of a
    u×v operand A with nnz ones at threshold c both ways and returns the
    cheaper kernel; ties go to the triangle.  The triangle pays each of
    its u(u−1)/2 cells a fixed overhead plus one AND+popcount per inner
    payload word, and one operand build, at [count_word]; the planes pay
    c plane words per one of A over the words past the diagonal (the
    average row's share of a u-wide upper result), plus both operand
    builds (A and Aᵀ) and the selection of each row, at [bool_word].  The
    multipliers are fitted to the two kernels' measured times.  A pure
    function of its arguments: no flag or environment variable picks
    the kernel. *)
