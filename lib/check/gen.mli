(** Seeded, size-parameterized case generation.

    Composes the explicit-state generators of {!Treekit.Generator},
    {!Xpath.Generator}, {!Cqtree.Generator} and {!Streamq.Path_pattern}
    into joint (tree, query) cases.  Everything is driven by one
    [Random.State.t] threaded through all composed calls, so a case is a
    pure function of [(seed, case index, salt)] — the triple printed in a
    repro line — independent of which other oracles ran before it. *)

type config = {
  max_nodes : int;  (** upper bound on generated tree size *)
  labels : string array;
      (** master label alphabet; each case draws a prefix of it *)
}

val default : config
(** 40 nodes, alphabet [a b c d]. *)

val rng_for : seed:int -> case:int -> salt:string -> Random.State.t
(** The per-(case, oracle) random state.  [salt] is hashed with a stable
    string hash (no dependence on OCaml's [Hashtbl.hash]), so replaying a
    single oracle reproduces its cases bit-for-bit. *)

val tree : config -> Random.State.t -> Treekit.Tree.t
(** A tree of 1 .. [max_nodes] nodes with a randomly chosen shape
    (uniform-recursive, depth-biased, path, star, full) and a random label
    alphabet prefix. *)

val xpath :
  ?axes:Treekit.Axis.t list ->
  ?allow_negation:bool ->
  ?allow_union:bool ->
  ?max_depth:int ->
  config ->
  Random.State.t ->
  Case.query
(** A random Core XPath query; the axis pool defaults to a random choice
    among several mixes (all axes, forward-only, vertical-only,
    sibling-heavy, upward-heavy). *)

val cq_acyclic : config -> Random.State.t -> Case.query
(** Tree-shaped conjunctive query, occasionally with a parallel atom. *)

val cq_arbitrary : config -> Random.State.t -> Case.query
(** Possibly cyclic conjunctive query over all axes. *)

val cq_xproperty : config -> Random.State.t -> Case.query
(** Possibly cyclic query whose axes are drawn from one of the three
    maximal tractable signatures of Corollary 6.7 (τ₁/τ₂/τ₃). *)

val pattern : config -> Random.State.t -> Case.query
(** Streaming forward path pattern. *)

val auto : config -> Random.State.t -> Case.query
(** Composed tree automaton (conjunction/disjunction/complement over the
    example automata). *)

val axis_law : config -> Random.State.t -> Case.query

val order_law : config -> Random.State.t -> Case.query

val setops : config -> Random.State.t -> Case.query
(** A node-set algebra script of 1–12 operations. *)

val standing : config -> Random.State.t -> Case.query
(** A standing-query script of 3–9 operations: registrations drawn
    across all four index classes (path spines, qualified forward
    XPath, general XPath, chain CQs, arbitrary CQs, composed automata),
    unregistrations of earlier script positions, match points; always
    ends on a match.  A chain CQ has 1–3 atoms over [child],
    [descendant] and [following] (a quarter written as the inverse
    atom), labels from the alphabet and a quarter of its variables
    unlabeled.  One registration in eight is a chain CQ or a path
    pattern of 3–4 positions joined by [descendant] steps and labelled
    from the first two labels, which on small trees often holds only
    through a position two or more levels below the one before it. *)

val obs_report : config -> Random.State.t -> Case.query
(** A synthetic {!Obs.Report.t}: nested spans with typed attributes,
    counters, histogram summaries and scope profiles.  Durations are
    whole microseconds and names exercise every JSON string-escape
    class, so the serialised report must be a round-trip fixpoint. *)

val latency_sample : config -> Random.State.t -> Case.query
(** An adversarial latency sample (1–24 values, 0–16 s) for a cost-store
    cell's histogram: all-equal, sorted, reverse-sorted, single-element,
    two-valued or random, on a quarter-integer value grid so all
    arithmetic is exact. *)
