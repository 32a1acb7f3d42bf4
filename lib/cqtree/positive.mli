(** Positive first-order queries (Section 5, Corollary 5.2).

    A positive FO query (no negation, no universal quantification) is,
    after DNF normalisation, a finite union of conjunctive queries.  By
    Theorem 5.1 every disjunct rewrites into a union of acyclic positive
    queries, so "a fixed positive Boolean FO query can be evaluated on
    trees A in time O(‖A‖)" (Corollary 5.2) — the union is fixed with the
    query, each acyclic member costs O(‖A‖·|Q'|).

    A value of this type is the union of conjunctive queries with a common
    head arity. *)

type t = { arity : int; disjuncts : Query.t list }

val make : Query.t list -> t
(** @raise Invalid_argument if the list is empty, some query is malformed,
    or head arities differ. *)

val of_strings : string list -> t
(** Parse each disjunct with {!Query.of_string}.
    @raise Treekit.Parse_error.Error at the offset into the failing
    disjunct, whose 1-based number the message names. *)

val boolean : ?env:Query.env -> t -> Treekit.Tree.t -> bool
(** Via {!Rewrite} per disjunct. *)

val unary : ?env:Query.env -> t -> Treekit.Tree.t -> Treekit.Nodeset.t

val solutions : ?env:Query.env -> t -> Treekit.Tree.t -> int array list
(** Sorted union of the disjuncts' answers. *)

val boolean_naive : ?env:Query.env -> t -> Treekit.Tree.t -> bool
(** Reference implementation over {!Naive}; used by tests. *)

val solutions_naive : ?env:Query.env -> t -> Treekit.Tree.t -> int array list

val pp : Format.formatter -> t -> unit
