(** Adaptive per-plan strategy selection.

    For each prepared plan (keyed by {!Treequery.Engine.canonical} form)
    the optimizer holds one {e arm} per strategy that can evaluate the
    query ({!Treequery.Engine.strategies}), seeded with a static cost
    estimate: the paper's per-strategy bound shape — the same shapes
    admission control prices with — with the data term narrowed by label
    selectivity (rarest query-mentioned label frequency) and tree
    statistics (size, height, mean fan-out) from the document's label
    index.

    Decisions are epsilon-greedy over the {e plausible set} (arms whose
    estimate is within a factor 16 of the best): each plausible arm is
    tried [min_trials] times — mostly round-robin, an [epsilon] of
    uniform draws — after which the entry {e converges} and every later
    decision is the argmin by latency.  An arm's latency is the
    {!Telemetry.Cost_store} EWMA of the store given to {!create}, so
    routing tracks the same online estimate the sketches export; a caller
    that learns from observations records them into the store before
    {!observe}.  Until the store has seen an arm — and always, when no
    store is attached — the arm ranks by its seeded estimate at
    {!ops_per_second}.  With [epsilon = 0] and deterministic latencies
    the whole process is deterministic, and a converged entry never
    regresses.

    Implausible arms — e.g. the O(n²·|Q|) FO² embedding on a large
    document — are never explored: their seeded estimate already rules
    them out, which is what keeps cold-start exploration cheap.

    The serving layer persists a converged pick in its
    {!Serve.Plan_cache} entry and passes it back as [?pinned] on later
    decisions, so a warm fleet skips exploration entirely. *)

module Stats : sig
  type t = {
    nodes : int;
    height : int;
    branching : float;  (** mean fan-out b solving b{^ height} ≈ nodes *)
    tree : Treekit.Tree.t;
  }

  val of_tree : Treekit.Tree.t -> t

  val label_frequency : t -> string -> float
  (** Fraction of nodes carrying the label, via the label index —
      O(occurrences) on first touch, O(1) after. *)
end

val selectivity : Stats.t -> Treequery.Engine.query -> float
(** The rarest positively-tested label's frequency (labels under
    negation don't narrow anything and are ignored), clamped to
    [1/nodes]; [1.0] when the query mentions no labels. *)

val estimate : Stats.t -> Treequery.Engine.prepared -> float
(** The seeded cost estimate for one arm, in elementary operations. *)

val ops_per_second : float
(** [5e7] elementary operations per second: converts seeded estimates
    into pseudo-latencies comparable with observed seconds, and prices
    the serving layer's admission budget ([deadline × ops_per_second]). *)

type t

val create :
  ?epsilon:float ->
  ?min_trials:int ->
  ?seed:int ->
  ?invert:bool ->
  ?store:Telemetry.Cost_store.t ->
  unit ->
  t
(** [epsilon] (default 0.1) is the warm-up exploration rate — pass [0.]
    for fully deterministic routing; [min_trials] (default 2) is the
    per-plausible-arm trial count before convergence; [seed] drives the
    epsilon draws; [store] attaches the telemetry cost store the argmin
    reads latency EWMAs from (and pick counters are reported to).

    [invert] is fault injection for the attestation gate: every
    decision routes to the {e worst} estimated arm, which on XPath
    inputs forces the quadratic FO² embedding and makes the
    never-worse slope bound provably fail.

    Raises [Invalid_argument] on [epsilon] outside [0,1] or
    [min_trials < 1]. *)

type reason =
  | Only_candidate  (** single arm; nothing to pick *)
  | Cached_pick  (** warm [?pinned] pick honored, exploration skipped *)
  | Exploring  (** warm-up: an under-tried plausible arm *)
  | Converged  (** argmin by latency (store EWMA, else estimate) *)
  | Seeded  (** {!seeded_decision}: estimate argmin, no observations *)
  | Injected_worst  (** [invert] fault injection *)

type decision = {
  d_prepared : Treequery.Engine.prepared;
  d_strategy : Treequery.Engine.strategy;
  d_reason : reason;
  d_estimate : float;  (** the picked arm's seeded estimate, ops *)
  d_candidates : (string * float) list;  (** all arms, name × estimate *)
}

val decide :
  t -> ?pinned:string -> Treekit.Tree.t -> Treequery.Engine.prepared -> decision
(** Route one request: given the planner-default prepared plan, return
    the arm to execute.  [?pinned] is a persisted pick (strategy name)
    from a previous convergence — when it names a live arm the entry
    converges immediately and exploration is skipped.  The first call
    for a canonical form prepares the sibling arms (once; they are
    cached with the entry).  Records the pick in the attached cost
    store.  Thread-safe. *)

val seeded_decision :
  t -> Treekit.Tree.t -> Treequery.Engine.prepared -> decision
(** The decision the optimizer would converge to from the seeded
    estimates alone — no exploration bookkeeping, no observations.
    [treequery explain --strategy auto] reports this. *)

val observe :
  t -> canon:string -> strategy:string -> cost:float -> (string * float) option
(** Feed back one executed request: [cost] in observed profile-counter
    ops (its latency goes to the attached store, recorded first).
    Returns [Some (strategy, mean_cost)]
    — the current best arm and its observed mean cost — once the entry
    has converged, so the caller can persist the pick
    ({!Serve.Plan_cache.set_pick}); [None] while still exploring or for
    an unknown [canon]. *)

val reason_to_string : reason -> string

val explain_decision : decision -> string
(** One-line rationale for [treequery explain --strategy auto] and the
    serve log: reason, seeded estimate, and the candidate table. *)

type arm_report = {
  r_strategy : string;
  r_estimate : float;
  r_trials : int;
  r_score : float;  (** what the argmin ranks by, seconds *)
  r_mean_cost : float;
  r_explorable : bool;
}

type entry_report = {
  r_fingerprint : string;
  r_canon : string;
  r_decisions : int;
  r_converged : bool;
  r_choice : string option;  (** current argmin, when converged *)
  r_arms : arm_report list;
}

val report : t -> entry_report list
(** Per-fingerprint state, sorted by fingerprint. *)

type stats = {
  entries : int;
  converged : int;
  decisions : int;
  explorations : int;
}

val stats : t -> stats

val to_json : t -> Obs.Json.t
(** The [serve --optimizer-out] document: global counters plus the full
    per-fingerprint arm table. *)
