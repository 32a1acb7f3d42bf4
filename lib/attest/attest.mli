(** Complexity attestation: check the paper's asymptotic claims against
    the counters that witness them.

    Each registered {!Obs.Bound} maps a claim (Theorem 3.2's |D|·|Q|
    grounding, Prop. 4.2's 2·|edges| semijoin program, Minoux's
    linear-time unit propagation, …) to a witnessing counter and the
    input-size term it must scale against.  {!run} sweeps each bound's
    term with the fixed-seed bench generators, fits the observed log-log
    slope and fails any bound whose slope exceeds its claimed exponent
    beyond tolerance — the paper's complexity map (Figure 7) as a CI
    regression gate.  Where the claim gives an exact envelope (semijoin
    passes ≤ 2·|Q| atoms, stream peak ≤ depth, the optimizer's pick
    doing no more work than the cheapest plausible arm), the sweep also
    checks it pointwise. *)

type outcome = {
  bound : Obs.Bound.t;
  points : (float * float * float) list;
      (** (term, counter, cap) per sweep step; the cap is the pointwise
          ceiling the claim puts on the counter ([infinity] when none) *)
  slope : float;  (** fitted log-log slope of counter vs term *)
  slope_ok : bool;  (** slope ≤ claimed exponent + tolerance *)
  envelope_ok : bool;  (** every point within its cap *)
}

val outcome_ok : outcome -> bool

val run : ?inject:bool -> seed:int -> tolerance:float -> unit -> outcome list
(** Sweep every registered bound — eight claims, including the adaptive
    optimizer's never-worse gate (its converged pick's observed cost
    must scale no worse than the best strategy's linear bound, and at
    each size be no more than the least work of any plausible arm).
    Every point is a pure function of [seed].
    [inject] adds two fault bounds that must FAIL, proving the gate has
    teeth: a deliberately superlinear counter, and an inverted optimizer
    whose every decision routes to the quadratic FO² arm.  Runs with
    observability enabled internally and restores the previous enabled
    state and counters afterwards. *)

val all_ok : outcome list -> bool

val to_json : seed:int -> tolerance:float -> outcome list -> Obs.Json.t
(** The BENCH_pr5.json document: seed, tolerance, verdicts and the raw
    (term, counter) points per bound, with the point's cap where one is
    claimed. *)

val to_text : outcome list -> string
