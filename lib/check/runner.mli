(** The differential-check driver.

    For each case index [k] and each selected oracle [o], the case is
    generated from the random state [Gen.rng_for ~seed ~case:k
    ~salt:o.name] — a pure function of the triple, independent of which
    other oracles or case indices ran.  A discrepancy is therefore
    replayable with

    {v treequery check --seed SEED --from K --cases 1 --oracles NAME v}

    which is exactly the repro line the report prints.  Progress and cost
    are recorded in the [check_*] observability counters and the ["check"]
    span, so [--trace]/[--stats-json] work on check runs like on any other
    subcommand. *)

type config = {
  seed : int;
  cases : int;  (** number of case indices to run *)
  from : int;  (** first case index *)
  max_nodes : int;  (** global tree-size ceiling (per-oracle caps still apply) *)
  oracles : Oracles.t list;
  shrink_budget : int;  (** predicate evaluations per discrepancy *)
  max_failures : int;  (** stop early after this many discrepancies *)
}

val default : config
(** seed 42, 200 cases from 0, 40-node ceiling, the full {!Oracles.all}
    registry, shrink budget 4000, stop after 10 failures. *)

type discrepancy = {
  oracle_name : string;
  theorem : string;
  case_index : int;
  seed : int;
  message : string;  (** the oracle's disagreement on the shrunk case *)
  original_message : string;  (** its disagreement on the case as generated *)
  original_size : int;
  shrunk : Case.t;
  shrink_steps : int;
}

type stats = {
  run_config : config;
  per_oracle : (string * int * int * int) list;
      (** oracle name, passes, skips, fails — registry order *)
  discrepancies : discrepancy list;  (** in discovery order *)
}

val run : config -> stats

val discrepancy_count : stats -> int

val to_text : stats -> string
(** Human-readable report: a per-oracle table, then one block per
    discrepancy: the shrunk case's message, the original case's message,
    the shrunk case and its repro line. *)
