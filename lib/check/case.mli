(** Joint (tree, query) test cases for the differential oracle.

    A case pairs a document tree with a "query" in the widest sense: a Core
    XPath expression, a conjunctive query, a streaming path pattern, a
    composed tree automaton, or the parameter of a metamorphic law (an axis,
    an order, a node-set-algebra script).  Every variant serialises to a
    replayable textual form so a failing case can be reported as
    [seed + serialized case] and reproduced bit-for-bit. *)

(** Composed tree automata, as a shrinkable expression over the example
    automata of {!Automata.Automaton} and the closure combinators. *)
type auto_expr =
  | Exists_label of string
  | Root_label of string
  | All_leaves of string
  | Count_mod of string * int * int  (** label, modulus, residue *)
  | Every_desc of string * string
  | Adjacent of string * string
  | Conj of auto_expr * auto_expr
  | Disj of auto_expr * auto_expr
  | Compl of auto_expr

(** One step of a node-set-algebra script, interpreted against both
    {!Treekit.Nodeset} and a boolean-array model.  Integer arguments are
    taken modulo the tree size at interpretation time, so scripts survive
    tree shrinking. *)
type setop =
  | Add of int
  | Remove of int
  | Add_range of int * int
  | Union_label of string
  | Inter_label of string
  | Diff_label of string
  | Complement

type query =
  | Xpath of Xpath.Ast.path
  | Cq of Cqtree.Query.t
  | Pattern of Streamq.Path_pattern.t
  | Auto of auto_expr
  | Axis_law of Treekit.Axis.t  (** metamorphic axis-image laws *)
  | Order_law of Treekit.Order.kind  (** pre/post/bflr order invariants *)
  | Setops of setop list  (** node-set algebra vs the bool-array model *)
  | Obs_report of Obs.Report.t
      (** a synthetic observability report; the tree is ignored and the
          oracle checks the JSON round-trip fixpoint *)
  | Latency_sample of float list
      (** latencies (seconds) for a cost-store cell's histogram; the tree
          is ignored and the oracle compares its quantiles (single and
          merged in both association orders) with exact sorted-array
          order statistics *)
  | Standing of standing_op list
      (** a standing-query script against one document: registrations
          (nested queries, including composed automata), unregistrations
          and match points, interpreted against both the shared
          {!Subscribe.Index} and one-at-a-time evaluation *)

(** One step of a standing-query script.  [S_register] at script
    position [i] registers under subscription ID [i]; [S_unregister k]
    unregisters ID [k] (a no-op when [k] is not live, so scripts survive
    shrinking); [S_match] matches the case tree and compares fired
    sets. *)
and standing_op =
  | S_register of query
  | S_unregister of int
  | S_match

type t = { tree : Treekit.Tree.t; query : query }

val automaton : auto_expr -> Automata.Automaton.t
(** Compile the expression with the {!Automata.Automaton} combinators. *)

val size : t -> int
(** Tree nodes + query size — the measure the shrinker decreases. *)

val query_size : query -> int

val query_to_string : query -> string

val setop_to_string : setop -> string

val standing_op_to_string : standing_op -> string

val to_string : t -> string
(** The serialized repro: the tree as one-line XML plus the query. *)
