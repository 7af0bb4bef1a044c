(** Yannakakis' algorithm for acyclic conjunctive queries.

    Given a join tree, evaluation is three sweeps over the atom bags:

    + bottom-up semijoin (parent ⋉ child) — removes parent tuples with no
      support below;
    + top-down semijoin (child ⋉ parent) — after this "full reduction"
      every remaining tuple participates in some output tuple;
    + bottom-up join, projecting each intermediate onto the head
      variables collected so far plus the parent's connector variables,
      which keeps intermediates output-polynomial.

    Runs in O(|D| + intermediate sizes) with hash joins; this is the
    general-query fallback around the specialized 2-path/star algorithms
    (see {!Engine}), and — through the bag-level entry points — the
    stitching layer that joins the decomposition planner's MM fragment
    outputs back into the rest of the query (see {!Planner}). *)

type catalog = (string * Jp_relation.Relation.t) list
(** Relation bindings by name; names are case-sensitive. *)

val run : catalog -> Cq.t -> (Jp_relation.Tuples.t, string) result
(** Evaluates an acyclic query; errors on cyclic queries, unknown
    relation names, or head variables of width 0 (boolean queries are
    answered through {!boolean}). *)

val boolean : catalog -> Cq.t -> (bool, string) result
(** Satisfiability of the query body (the head is ignored): true iff the
    join is non-empty. *)

val run_bags :
  ?cancel:Jp_util.Cancel.t ->
  head:string list ->
  Bag.t array ->
  (Jp_relation.Tuples.t, string) result
(** The semijoin program over an arbitrary bag array: the join tree comes
    from the bags' variable sets ({!Hypergraph.join_tree_sets}), so a bag
    may be a plain atom or a derived fragment output of any arity.  The
    input array is not mutated.  Errors if the bags' hypergraph is cyclic,
    [head] is empty, or a head variable occurs in no bag.  [cancel] is
    polled at the three phase boundaries, never per tuple; absent, the
    polls do nothing. *)

val boolean_bags :
  ?cancel:Jp_util.Cancel.t -> Bag.t array -> (bool, string) result
(** Satisfiability of the bags' join: true iff it is non-empty. *)
