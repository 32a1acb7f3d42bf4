(** The serving loop: admission control, deadlines, batching and latency
    accounting over one tree.

    Requests are processed in admission order, [batch] at a time, through
    {!Batch.run_prepared}; plans come from the {!Plan_cache} when one is
    configured.  Time is discrete-event simulated: service durations are
    measured with the real [clock], queueing is virtual, so an open-loop
    workload whose arrival rate exceeds the service rate builds queueing
    delay (and sheds requests whose deadline passed before admission)
    without the driver ever sleeping.

    Admission control is the paper's complexity map used as a gatekeeper:
    each prepared plan carries a strategy, and the strategy's row of the
    engine's price table ({!Treequery.Engine.price}) an upper bound on
    the work the plan counts (e.g. 3·n·|Q| for bottom-up Core XPath,
    linear in the exponential-size acyclic union for the rewrite
    strategy); a request whose price exceeds what the deadline affords
    at {!Treequery.Engine.ops_per_second} is rejected up-front with
    ["degraded: naive bound exceeded"] rather than allowed to blow the
    deadline for everyone queued behind it. *)

type config = {
  cache : Plan_cache.t option;
  concurrency : int;  (** requests admitted (in flight) together; ≥ 1 *)
  share : bool;
      (** batch mode: run each in-flight group through
          {!Batch.run_prepared} (plan dedup, grouped seed scans) instead
          of one evaluation per request *)
  stream_prefilter : bool;
      (** with [share]: also decide the group's streamable queries in one
          SAX pass (see {!Batch.run_prepared}) *)
  deadline : float option;  (** per-request seconds, for shed + reject *)
  clock : unit -> float;
  telemetry : Telemetry.Cost_store.t option;
      (** per-fingerprint cost store fed one observation per served
          request (per distinct plan in [share] mode): service latency
          (the scope duration, not queueing), the plan's price as
          predicted cost, and the {!Treequery.Engine.work} its [exec]
          counted as observed cost.  Residual violations (observed/predicted over the
          store's threshold) are counted in [stats] and bump
          [serve_residual_violations]. *)
  recorder : Telemetry.Flight_recorder.t option;
      (** flight recorder pushed one entry per request outcome (served,
          shed, rejected, residual violation); shed/degrade/violation
          also {!Telemetry.Flight_recorder.trigger} it *)
  optimizer : Optimizer.t option;
      (** adaptive strategy selection: every planned request is
          re-routed through {!Optimizer.decide}, given the server's
          admission test so that it explores only arms a [deadline]
          admits, and admission control prices the {e picked} arm, not
          the planner default.
          The optimizer learns only from the observations [telemetry]
          records, so an optimizer with a store must be given that
          store as [telemetry]; a store-less one routes by its seeded
          estimates. *)
  force_strategy : Treequery.Engine.strategy option;
      (** pin every request to one strategy (re-prepared once per
          canonical shape; shapes the strategy cannot evaluate keep the
          planner default).  Wins over [optimizer] — the fixed arms of
          the auto-vs-fixed serving benchmark are exactly this. *)
  inject_overbudget : bool;
      (** fault injection for the telemetry smoke tests: wrap each
          admitted plan's [exec] so it bumps the [serve_injected_work]
          counter by twice the plan's price, inside the request's (or,
          in [share] mode, the rep's) scope — every served plan's
          observed cost provably exceeds its prediction. *)
  tick_every : float option;  (** virtual seconds between telemetry ticks *)
  on_tick : (int -> float -> unit) option;
      (** [f i vt] fires after the chunk during which virtual time
          passed tick [i]'s deadline [vt = (i+1)·tick_every] — the
          driver's periodic OpenMetrics snapshot hook, deterministic
          under a fake clock because it is driven by virtual time *)
  pool : Pool.t option;
      (** execute each chunk's admitted requests (batch reps in [share]
          mode) in parallel on the pool's domains through
          {!Pool.mapi_sharded}, merged on the admitting domain in
          admission order — answers, counter totals, telemetry feed and
          flight-recorder entries are identical to the sequential path.  The caller must
          {!Treekit.Tree.seal} the tree first and keeps ownership of the
          pool ({!Pool.shutdown}).  [None] (the default) preserves the
          sequential loop exactly. *)
  wall_clock : bool;
      (** honour open-loop arrival times in real time: the loop [sleep]s
          until each chunk's last arrival instead of advancing a virtual
          clock, and latency/throughput are measured against [clock]
          itself.  [false] (the default) keeps the deterministic
          discrete-event twin. *)
  sleep : float -> unit;
      (** how to wait in [wall_clock] mode.  The library does not link
          [unix], so the CLI injects [Unix.sleepf]; the default no-op
          treats every arrival as already due (pure back-pressure). *)
}

val config :
  ?cache:Plan_cache.t ->
  ?concurrency:int ->
  ?share:bool ->
  ?stream_prefilter:bool ->
  ?deadline:float ->
  ?clock:(unit -> float) ->
  ?telemetry:Telemetry.Cost_store.t ->
  ?recorder:Telemetry.Flight_recorder.t ->
  ?optimizer:Optimizer.t ->
  ?force_strategy:Treequery.Engine.strategy ->
  ?inject_overbudget:bool ->
  ?tick_every:float ->
  ?on_tick:(int -> float -> unit) ->
  ?pool:Pool.t ->
  ?wall_clock:bool ->
  ?sleep:(float -> unit) ->
  unit ->
  config
(** Defaults: no cache, [concurrency = 1], [share = false],
    [stream_prefilter = false], no deadline, [clock = Obs.now], no
    telemetry, no recorder, no optimizer, [inject_overbudget = false], no
    ticks, no pool, [wall_clock = false], [sleep] a no-op.

    Raises [Invalid_argument] when [concurrency < 1], [tick_every <= 0],
    or the optimizer has a store that is not [telemetry]. *)

val reject_reason : string
(** ["degraded: naive bound exceeded"] — the message attached to
    admission-control rejections. *)

type stats = {
  requests : int;
  served : int;
  rejected : int;  (** admission control: {!reject_reason} *)
  shed : int;  (** open loop: deadline already passed at admission *)
  errors : int;
  distinct_evaluated : int;  (** evaluations after batch dedup *)
  stream_pruned : int;
  result_nodes : int;  (** Σ answer cardinalities over served requests *)
  elapsed : float;  (** wall seconds for the whole run *)
  throughput : float;  (** served / elapsed *)
  latency : Obs.histogram_summary;  (** queueing + service per request *)
  cache : Plan_cache.stats option;
  degraded : (string * float) list;
      (** admission-control rejections in order: the plan fingerprint and
          the price it was rejected at *)
  residual_violations : int;
      (** served requests whose observed cost exceeded their price by
          more than the cost store's threshold; 0 when no [telemetry]
          store is configured *)
}

val run :
  config ->
  Treekit.Tree.t ->
  Workload.shape array ->
  Workload.request list ->
  stats
(** Serve the requests; the run is wrapped in a [serve] span (attributed
    with |D|, request count, concurrency and share mode) with per-phase
    child spans ([serve:plan], [serve:batch], …, plus one
    [serve:shed]/[serve:degrade] marker per refused request carrying the
    fingerprint and bound it priced) and feeds the [serve_latency]
    histogram (cleared at the start of each run).  When observability is
    enabled, each request's evaluation runs in an {!Obs.Scope} — one
    profile per request (per distinct plan in [share] mode), so a
    captured report attributes counters to requests rather than one
    global blob. *)

val to_text : ?telemetry:Telemetry.Cost_store.t -> stats -> string
(** Multi-line human-readable summary with latency quantiles.
    [telemetry] appends the {!Telemetry.Cost_store.to_table} end-of-run
    table (top fingerprints by p99, residual outliers). *)
