(** Matrix-multiplication cost models.

    Two layers, mirroring the paper:

    - The {e theoretical} rectangular cost of Lemma 1,
      [M(U,V,W) = U·V·W·β^(ω−3)] with [β = min(U,V,W)], used by the
      closed-form threshold analysis of Section 3.

    - The {e machine-calibrated} estimator [M̂(u,v,w,co)] of Section 5
      (Table 1): measured per-operation constants for the actual kernels in
      {!Dense}, {!Intmat} and {!Boolmat}, anchored on a small table of
      square multiplies and extrapolated by the cubic cost formula — valid
      because the kernels, like the paper's Eigen, implement the
      (optimized) cubic algorithm with predictable running time.  The
      engines' heavy products run through [Jp_tile], whose tiles execute
      the same row kernels (one tile for products up to its cap), so
      constants timed on the whole-matrix {!Boolmat} references price
      them too.  Nothing here chooses a kernel: there is only one.

    The same calibration pass also measures the paper's Table-1 machine
    constants [Ts] (sequential access), [Tm] (allocation) and [TI] (random
    access/insert), which Algorithm 3 combines with the index statistics to
    cost the combinatorial part of the join. *)

type kind =
  | Count  (** {!Boolmat.count_product}: bit-sliced count product *)
  | Boolean  (** {!Boolmat.mul}: bit-packed boolean product *)

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
      (** seconds per 62-bit AND+popcount word in {!Boolmat.count_product} *)
  bool_word : float;  (** seconds per 62-bit word OR in {!Boolmat.mul} *)
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

val mhat : machine -> kind -> u:int -> v:int -> w:int -> cores:int -> float
(** [mhat m kind ~u ~v ~w ~cores] estimates wall seconds to multiply
    [u×v · v×w] with the given kernel on [cores] cores, including the
    matrix-construction cost [C] (Section 3.1). *)

val construction_seconds : machine -> u:int -> v:int -> w:int -> float
(** Estimated time to materialize the two input matrices
    ([max(u·v, v·w)] cell writes, Section 3.1's [C] term). *)
