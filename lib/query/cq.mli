(** Conjunctive queries over binary relations.

    The paper's future-work section asks for the extension of join-project
    evaluation "to arbitrary acyclic queries with projections", which needs
    a query representation first.  This module provides the AST and a
    parser for a datalog-ish surface syntax:

    {v Q(x, z) :- R(x, y), S(z, y) v}

    - atom arguments are variables (lower-case identifiers) or integer
      constants (selections);
    - relations are binary (this library's data model), checked at parse
      time;
    - the head lists the projection variables (possibly empty: a boolean
      query). *)

type term = Var of string | Const of int

type atom = {
  relation : string;  (** relation name, e.g. "R" *)
  args : term * term;  (** binary atoms only *)
}

type t = {
  head : string list;  (** projection variables, in output order *)
  body : atom list;
}

val parse : string -> (t, string) result
(** Parses ["Q(x,z) :- R(x,y), S(z,y)"].  Errors carry a human-readable
    message with a position.  Validations: head variables must occur in
    the body; at least one atom; identifiers are
    [\[a-zA-Z\]\[a-zA-Z0-9_\]*]; the head name itself is ignored. *)

val vars : t -> string list
(** All distinct body variables, in first-occurrence order. *)

val atom_vars : atom -> string list
(** Distinct variables of one atom (0, 1 or 2). *)
