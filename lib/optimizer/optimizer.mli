(** Adaptive per-plan strategy selection.

    For each prepared plan (keyed by {!Treequery.Engine.canonical} form)
    the optimizer holds one {e arm} per strategy that can evaluate the
    query ({!Treequery.Engine.strategies}), seeded with a static cost
    estimate: the arm's {!Treequery.Engine.price} — the same price
    admission control reads — with n discounted on label-driven rows by
    label selectivity (rarest query-mentioned label frequency).

    The routing state a shape learns lives in one place: the
    {!Telemetry.Cost_store} given to {!create}.  A decision reads each
    {e plausible} arm's (estimate within a factor 16 of the best, and
    passing the caller's admission test, see {!decide}) observation
    count and latency EWMA from the store.  Until every plausible arm
    has been observed twice it explores the arm with the fewest
    observations (first in strategy order on ties); from then on the
    entry has {e converged} and every decision is the argmin by the
    EWMA.  The optimizer records nothing itself: a caller that wants it
    to learn records each execution into the store, as
    {!Serve.Server.run} does.  With deterministic latencies the whole
    process is deterministic, and a converged entry never regresses.

    An entry with nothing to learn is converged when it is created: one
    whose plausible set is a single arm, and every entry of an optimizer
    without a store, which routes by the seeded estimates alone — the
    decision [treequery explain --strategy auto] reports.

    Implausible arms — e.g. the O(n²·|Q|) FO² embedding on a large
    document — are never explored: their seeded estimate already rules
    them out, which is what keeps cold-start exploration cheap. *)

module Stats : sig
  type t = { nodes : int; tree : Treekit.Tree.t }

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
(** The seeded cost estimate for one arm, in counted operations:
    {!Treequery.Engine.price} with n replaced, on rows whose
    [label_driven] is set, by [n × (0.25 + 0.75 × selectivity)] — a
    discount on the shared price, not a second table.  Seeds become
    pseudo-latencies at {!Treequery.Engine.ops_per_second}. *)

type t

val create : ?invert:bool -> ?store:Telemetry.Cost_store.t -> unit -> t
(** [store] is the telemetry cost store routing learns from (and pick
    counters are reported to).

    [invert] is fault injection for the attestation gate: every
    decision routes to the {e worst} estimated arm, which on XPath
    inputs forces the quadratic FO² embedding and makes the
    never-worse slope bound provably fail. *)

val store : t -> Telemetry.Cost_store.t option
(** The store given to {!create}. *)

type reason =
  | Only_candidate  (** single arm; nothing to pick *)
  | Exploring  (** warm-up: the least-observed plausible arm *)
  | Converged  (** argmin by latency (store EWMA, else estimate) *)
  | Seeded  (** estimate argmin of an optimizer without a store *)
  | Injected_worst  (** [invert] fault injection *)

type decision = {
  d_prepared : Treequery.Engine.prepared;
  d_strategy : Treequery.Engine.strategy;
  d_reason : reason;
  d_estimate : float;  (** the picked arm's seeded estimate, ops *)
  d_candidates : (string * float) list;  (** all arms, name × estimate *)
}

val decide :
  ?admit:(Treequery.Engine.prepared -> bool) ->
  t ->
  Treekit.Tree.t ->
  Treequery.Engine.prepared ->
  decision
(** Route one request: given the planner-default prepared plan, return
    the arm to execute.  The first call for a canonical form prepares
    the sibling arms (once; they are cached with the entry) and fixes
    the plausible set, using [admit], the caller's admission test
    (default: admit everything; the server passes its deadline test,
    which is fixed for a run).  An arm it rejects would never run,
    hence never be observed, so it is not plausible — unless no arm
    within the estimate span passes, in which case the span stands and
    the shape is rejected whichever arm is picked.  Records the pick in
    the attached cost store.  Thread-safe. *)

val reason_to_string : reason -> string

val explain_decision : decision -> string
(** One-line rationale for [treequery explain --strategy auto] and the
    serve log: reason, seeded estimate, and the candidate table. *)

type arm_report = {
  r_strategy : string;
  r_estimate : float;
  r_trials : int;  (** observations of the arm in the store *)
  r_score : float;  (** what the argmin ranks by, seconds *)
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
(** Per-fingerprint state, sorted by fingerprint.  Convergence is read
    from the store, so an entry shows converged as soon as its last
    needed observation is recorded. *)

type stats = {
  entries : int;
  converged : int;
  decisions : int;
  explorations : int;
}

val stats : t -> stats
(** Counts; [converged] is read from the store, as in {!report}. *)

val to_json : t -> Obs.Json.t
(** The ["optimizer"] member of [serve --stats-json]: global counters
    plus the full per-fingerprint arm table. *)
