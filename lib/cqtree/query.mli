(** Conjunctive queries over trees (Sections 3–6).

    A conjunctive query is a positive FO query without disjunction, written
    here as a set of atoms over variables: unary atoms (node labels, τ⁺
    unary predicates, or externally supplied node sets) and binary atoms
    whose relations are the axes of {!Treekit.Axis}.  The head is a list of
    variables: [[]] for a Boolean query, a singleton for a unary query,
    longer lists for k-ary queries.

    Example (the paper's Section 6 shapes):
    [q(x) ← Lab_a(x), Child⁺(x, y), Lab_b(y)] is
    [{ head = ["x"]; atoms = [U (Lab "a", "x"); A (Descendant, "x", "y");
       U (Lab "b", "y")] }]. *)

type var = string

type unary =
  | Lab of string  (** the labeling relation [Lab_a] *)
  | Root
  | Leaf
  | First_sibling
  | Last_sibling
  | Named of string
      (** an externally supplied node set — how the paper's reduction from
          k-ary to Boolean queries adds singleton relations [Xᵢ = {aᵢ}]
          (after Theorem 6.5) *)
  | False
      (** the empty set; used internally to mark variables with
          unsatisfiable constraints (e.g. an irreflexive self-loop) *)
  | True
      (** the set of all nodes ([Dom]); used to keep a variable safe when
          all its other atoms simplify away *)

type atom =
  | U of unary * var
  | A of Treekit.Axis.t * var * var
      (** [A (axis, x, y)] is the atom [axis(x, y)] *)

type t = { head : var list; atoms : atom list }

type env = (string * Treekit.Nodeset.t) list
(** Interpretations for [Named] predicates. *)

val vars : t -> var list
(** All distinct variables, head variables first, in order of appearance. *)

val is_boolean : t -> bool
val is_unary : t -> bool

val atom_count : t -> int

val check : t -> (unit, string) result
(** Well-formedness: every head variable occurs in some atom (safety) and
    the query has at least one variable. *)

val rename : (var -> var) -> t -> t
(** Apply a variable substitution to head and atoms. *)

val normalize_forward : t -> t
(** Replace every inverse-axis atom [A⁻¹(x,y)] by [A(y,x)] and every
    [Self(x,y)] atom by unifying [x] and [y]; the result uses only the
    forward axes of {!Treekit.Axis.forward} minus [Self]; a variable left
    in no atom gets a [True] atom.  Semantics are preserved. *)

val signature : t -> Treekit.Axis.t list
(** The distinct axes used by binary atoms, after forward normalisation. *)

val of_string : string -> t
(** Parse the datalog-rule notation used throughout:
    {v q(X) :- lab(X, "a"), descendant(X, Y), lab(Y, "b"). v}
    Binary predicate names are axis names as accepted by
    {!Treekit.Axis.of_name} (so both ["descendant"] and ["child+"] work);
    unary names: [root], [leaf], [firstsibling], [lastsibling], [lab],
    anything else is a [Named] set.  A Boolean query is written [q :- …].
    @raise Treekit.Parse_error.Error at the offending offset (offset 0
    when the text parses but is not a query, see {!check}). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
