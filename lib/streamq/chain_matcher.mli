(** Streaming Boolean matching of chain-shaped conjunctive queries, a
    whole bank at once.

    A chain is a CQ whose binary atoms form one directed path
    x0 → x1 → … → xk over [child], [descendant] and [following], each
    variable with at most one label test.  These are forward axes, which
    §5 (after Olteanu et al.) evaluates in one document-order pass:
    [child(x, y)] and [descendant(x, y)] look at the nodes open when y
    opens, and [following(x, y)] holds exactly when y opens after x
    closes.  At each [Open] the bank computes, per chain, a bit per
    position from the nearest open ancestor where that chain matched;
    only nodes where a chain matched go on that chain's stack.  Each
    [following] atom reads one monotone bit, set at the [Close] of a node
    where the preceding position matched.  The last position fires the
    chain at its [Open].

    Labels are interned once per bank and the bank is label-indexed, so
    an [Open] evaluates only the chains that test its label or have an
    unlabeled position, and an event allocates nothing.  Memory is
    O(depth · chains) words. *)

type axis = Child | Descendant | Following

type chain = { first : string option; steps : (axis * string option) list }
(** Position 0's label test, then one [(axis, label test)] per atom:
    step i joins position i to position i + 1.  [None] is no test. *)

val max_positions : int
(** The longest chain a bank accepts (62 positions): a chain's positions
    are the bits of one OCaml [int]. *)

val of_cq : Cqtree.Query.t -> chain option
(** The query as a chain, after {!Cqtree.Query.normalize_forward}:
    [Some] when its binary atoms form one directed path over [child],
    [descendant] and [following] through every variable (so every head
    variable is on it), each variable has at most one [Lab] test
    ([True] tests are dropped) and no other unary atom, and there are at
    most {!max_positions} variables.  The chain matches a document iff
    the query has a satisfying valuation on it. *)

(** {1 Banks and passes}

    As in {!Twig_matcher}: a {!bank} holds the compiled chains, one slot
    each, patched by {!add} and {!remove} in time proportional to the
    chain; a pass ({!t}) holds only the per-document working arrays.
    [reset] restores exactly the state of a fresh {!pass}, also after a
    truncated stream, and grows the arrays when the bank has handed out
    slots the pass has not seen.  A bank must not change while one of
    its passes is inside a document. *)

type bank

val bank : unit -> bank

val add : bank -> chain -> int
(** Compile a chain into a free slot and return the slot.
    @raise Invalid_argument on a chain longer than {!max_positions}. *)

val remove : bank -> int -> unit
(** Free a slot for the next {!add}.
    @raise Invalid_argument on a slot that holds no chain. *)

val live : bank -> int
(** Chains in the bank. *)

type t

val pass : bank -> t

val reset : t -> unit

val push : t -> Treekit.Event.t -> unit
(** @raise Invalid_argument on unbalanced event streams. *)

val matched : t -> int -> bool
(** [matched pass j]: has the chain in slot [j] fired in the document so
    far? *)

val iter_matched : t -> (int -> unit) -> unit
(** The slots that have fired in the document so far, each once. *)
