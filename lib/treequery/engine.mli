(** The unified query-processing front end.

    Ties the whole library together along the paper's tractability map
    (Figure 7 and Sections 4–6): parse a query in one of three languages,
    pick an evaluation strategy, evaluate.

    Strategy selection for conjunctive queries follows the paper:
    + acyclic → Yannakakis' algorithm (Section 4, O(‖A‖·|Q|));
    + cyclic but X-property signature → arc-consistency (Section 6,
      O(‖A‖·|Q|) for Boolean/unary);
    + otherwise → rewrite into a union of acyclic queries (Theorem 5.1,
      exponential in |Q|, then linear in the data) — the general case is
      NP-complete, so some exponential in |Q| is unavoidable unless
      P = NP.

    Core XPath uses the set-at-a-time bottom-up evaluator (one O(n) axis
    image per step, O(n·|Q|) overall); monadic datalog grounds to
    Horn-SAT (Theorem 3.2).  {!price_row} writes each strategy's bound
    down once, for admission control, routing and {!explain}. *)

type query =
  | Xpath_query of Xpath.Ast.path
  | Cq_query of Cqtree.Query.t
  | Datalog_query of Mdatalog.Ast.program
  | Positive_query of Cqtree.Positive.t
      (** a union of conjunctive queries = positive FO (Corollary 5.2) *)
  | Axis_datalog_query of Mdatalog.Axis_datalog.program
      (** monadic datalog over arbitrary axes (Figure 7's mon.datalog[X]) *)

val parse_xpath : string -> query
(** @raise Treekit.Parse_error.Error with the offending token's offset *)

val parse_cq : string -> query
(** @raise Treekit.Parse_error.Error with the offending token's offset *)

val parse_datalog : string -> query
(** @raise Treekit.Parse_error.Error with the offending token's offset *)

val parse_positive : string list -> query
(** One conjunctive query per string; their union.
    @raise Treekit.Parse_error.Error with the offset into the failing
    disjunct, which the message names @raise Invalid_argument *)

val parse_axis_datalog : string -> query
(** @raise Treekit.Parse_error.Error with the offending statement's
    offset *)

type strategy =
  | Xpath_bottom_up
  | Cq_yannakakis
  | Cq_arc_consistency
  | Cq_rewrite
  | Datalog_hornsat
  | Positive_rewrite
  | Datalog_fixpoint
  | Xpath_fo2
      (** Core XPath via the FO² embedding (Marx / Section 4): translate
          in linear time, evaluate naively in O(n²·|Q|).  Never the
          planner default — an optimizer arm that only wins on small
          documents. *)

val all_strategies : strategy list
(** Every strategy, in declaration order. *)

val strategy_name : strategy -> string

val strategy_of_name : string -> strategy option
(** Inverse of {!strategy_name} (the CLI's [--strategy] parser). *)

val plan : query -> strategy
(** The strategy {!eval} will use. *)

val strategies : query -> strategy list
(** Every strategy able to answer the query, {!plan}'s default first:
    the candidate set an adaptive optimizer picks from.  XPath queries
    offer the bottom-up evaluator, monadic datalog via the Section 3
    translation, Yannakakis when the path is conjunctive (Prop. 4.2) and
    FO²; conjunctive queries offer Yannakakis (acyclic), arc-consistency
    (X-property signature) and the acyclic-union rewrite; the remaining
    languages have exactly one evaluator. *)

val query_size : query -> int
(** The |Q| term of the paper's bounds: syntactic size of the query
    (steps + qualifiers for XPath, atoms + variables for CQs, heads and
    body atoms over all rules for datalog), which {!price} charges. *)

(** {1 The price table}

    Per strategy, the shape of the paper's bound in n = |D| and |Q| and a
    constant read off the counters its evaluator bumps, so that
    [per_unit × shape] bounds the {!work} of one run for n, |Q| ≥ 1.
    Admission, the residual, the optimizer's seed and {!explain} read it;
    the [price-covers-work] oracle checks it. *)

type shape =
  | N_Q  (** n·|Q| *)
  | N2_Q  (** n²·|Q| *)
  | N3_Q  (** n³·|Q| *)
  | N2_Q2  (** n²·|Q|² *)

type price_row = {
  shape : shape;
  per_unit : int;
  label_driven : bool;  (** passes start from label occurrence sets *)
  citation : string;  (** the bound and where the paper proves it *)
}

val price_row : strategy -> price_row

(** {1 Canonical forms and fingerprints}

    The serving layer's plan cache keys on a canonical query fingerprint:
    two textual variants of the same query must collapse to one cache
    entry, and structurally distinct queries must not collide. *)

val canonical : query -> string
(** A language-tagged canonical rendering: XPath paths have their [Seq],
    [Union], [and]/[or] spines re-associated (so parenthesization variants
    print identically) and top-level [and]s inside a qualifier folded into
    the step's qualifier list; conjunctive queries (and each disjunct of a
    positive query, and each datalog rule) are alpha-renamed to [v0, v1, …]
    in order of first appearance.  Whitespace variants are already erased
    by parsing.  [canonical q = canonical q'] iff the plan compiled for
    [q] may be reused for [q']. *)

val fingerprint : query -> string
(** ["lang:%016x"] — the language tag and a 64-bit FNV-1a hash of
    {!canonical} (stable across runs and architectures).  The plan cache
    stores the full canonical string alongside, so a hash collision can
    never silently serve the wrong plan; the fingerprint is the short
    name used in [explain] output, traces and eviction bookkeeping. *)

(** {1 Prepared (compiled) plans} *)

type prepared = private {
  source : query;
  strategy : strategy;
  canon : string;  (** {!canonical} of [source] *)
  fp : string;  (** {!fingerprint} of [source] *)
  size : int;
      (** the |Q| term of the plan's {!price}: {!query_size} of [source],
          or the size of what a rewrite (the acyclic union) or FO² (the
          formula) arm evaluates *)
  exec : Treekit.Tree.t -> Treekit.Nodeset.t;
  exec_boolean : Treekit.Tree.t -> bool;
}
(** A query with its planning decisions (and, for the rewrite strategies,
    the exponential-in-|Q| union of acyclic queries) computed once, so a
    cached plan pays only evaluation on reuse.  [exec] answers the first
    head column: a k-ary conjunctive query is evaluated as its unary
    projection.  [exec]/[exec_boolean] agree with {!eval}/{!eval_boolean}
    (property-tested by the [plan-cache] differential oracle). *)

val prepare : query -> prepared
(** Plan and compile once.  Raises whatever {!plan} would on malformed
    queries. *)

val prepare_with : strategy -> query -> prepared
(** Compile with a caller-chosen strategy instead of {!plan}'s default —
    the hook the adaptive optimizer (and a fixed [--strategy] serve run)
    uses to force an arm.  [exec]/[exec_boolean] agree with {!prepare}'s
    for every strategy in {!strategies} (property-tested by the
    [optimizer-pick] differential oracle).
    @raise Invalid_argument when the strategy is not in
    [strategies query]. *)

val with_exec : prepared -> (Treekit.Tree.t -> Treekit.Nodeset.t) -> prepared
(** The same plan, executing [exec] instead — the hook serving-layer
    fault injection uses to burn extra work inside a plan's execution. *)

val price : prepared -> n:float -> float
(** [per_unit × shape(n, size)], n and [size] clamped to at least 1: a
    bound on the {!work} of one [exec] or [exec_boolean] on n nodes. *)

val ops_per_second : float
(** [5e7]: admission's budget is [deadline × ops_per_second], and seeds
    become pseudo-latencies at this rate. *)

val work : Obs.profile -> int
(** Counted work of a scoped region: the sum of its profile's positive
    counter deltas, the quantity {!price} bounds. *)

val explain :
  ?auto:strategy * string ->
  ?observed:Obs.Report.t ->
  ?plan_cache:[ `Hit | `Miss ] ->
  query ->
  string
(** A human-readable account of the plan: language, fragment properties
    (conjunctive/positive/forward, acyclicity, signature class, estimated
    tree-width), chosen strategy, its {!price_row} (price shape and
    citation), the candidate strategy set ({!strategies}, when more than
    one), and the query's {!fingerprint}.  [auto] (supplied by the
    adaptive optimizer) adds an "auto-pick:" line reporting the picked
    strategy and why.  [plan_cache] (supplied by the
    serving layer) adds a "plan-cache:" line with the lookup outcome.  If
    [observed] (default: the counters recorded since the last [Obs.reset],
    i.e. of the preceding traced run) is nonempty, an "observed:" section
    lists the counters so the bound can be compared with the work actually
    done. *)

val eval : query -> Treekit.Tree.t -> Treekit.Nodeset.t
(** Unary evaluation: {!prepare}'s [exec].  A Boolean conjunctive query
    returns [{root}] when satisfied and [{}] otherwise; a k-ary (k ≥ 2)
    conjunctive query returns the set of nodes in its first head column
    (use {!solutions} for the tuples).
    @raise Invalid_argument on malformed queries *)

val eval_boolean : query -> Treekit.Tree.t -> bool
(** Nonemptiness of the query answer. *)

val solutions : query -> Treekit.Tree.t -> int array list
(** Head tuples for conjunctive queries; singleton tuples of {!eval} for
    the other languages. *)
