(** Query hypergraph analysis: GYO reduction and join-tree construction.

    A conjunctive query is α-acyclic iff GYO reduction — repeatedly
    removing "ears" (atoms whose shared variables are covered by a single
    other atom) — empties its hypergraph.  The removal order yields a join
    tree, which {!Yannakakis} consumes.  Atoms are identified by their
    index in the query body. *)

type join_tree = {
  order : int list;
      (** atoms in a bottom-up elimination order (every atom appears after
          all atoms whose parent it is; the last element is the root) *)
  parent : int array;  (** parent atom index; -1 for the root *)
}

val join_tree : Cq.t -> join_tree option
(** [None] iff the query is cyclic.  Single-atom queries yield the trivial
    tree.  Disconnected queries are accepted (components attach with empty
    shared-variable sets, i.e. cartesian products). *)

val join_tree_sets : string list array -> join_tree option
(** GYO reduction over explicit variable sets, one per hypergraph node —
    the generalization the decomposition planner needs, where a node may
    be a derived bag of arbitrary arity rather than a binary atom.
    [join_tree q] is [join_tree_sets] over [q]'s atoms' variable sets.
    The empty array yields [None]. *)
