(** SizeAware++ — Section 4's three optimizations layered on SizeAware:

    - {b Heavy} : the heavy scan R ⋈ R{_h} becomes an output-sensitive
      counted join-project ({!Joinproj.Two_path.project_counts}), which
      beats the N·N/x inverted-list scan whenever the heavy join output
      is small;
    - {b Light} : the brute-force bucket pair enumeration becomes a
      boolean join-project over the {set, c-subset bucket} relation,
      deduplicating with matrix multiplication instead of a hash set;
    - {b Prefix} : light expansion is shared across sets with common
      prefixes via {!Overlap_tree} (Example 6's materialization).

    The flags reproduce Figure 8's ablation: [none] is SizeAware itself,
    [light], [heavy] and [prefix] switch the optimizations on
    cumulatively. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs

type options = { mm_heavy : bool; mm_light : bool; prefix : bool }

val ablation : [ `No_op | `Light | `Heavy | `Prefix ] -> options
(** Figure 8's cumulative configurations. *)

val join :
  ?domains:int -> ?options:options -> ?boundary:int -> c:int -> Relation.t -> Pairs.t
(** Unordered SSJ, same contract as {!Size_aware.join}. *)
