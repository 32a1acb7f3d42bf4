(** The per-fingerprint cost store: observed work and latency per
    (plan fingerprint × strategy), with a residual tracker comparing
    each request's observed cost against the price admission read from
    the engine's table ({!Treequery.Engine.price}).

    This is the online twin of [treequery attest]'s slope gate: attest
    verifies the paper's bounds offline by sweeping input sizes; the
    store watches the same bounds per served request, flagging any
    request whose observed/predicted operation ratio exceeds
    [threshold].  Observed cost is the sum of the request's
    {!Obs.Scope} profile counter deltas ({!Treequery.Engine.work}) —
    the counters the price is derived from — so with observability
    disabled the gate never fires (observed = 0).

    The adaptive optimizer reads {!observations} to refine its seeded
    estimates with live per-shape statistics — the store is the only
    record routing learns from — and reports every routing decision
    through {!record_pick}, so the exposition shows which strategy each
    fingerprint converged on. *)

type t

type summary = {
  fingerprint : string;
  strategy : string;
  served : int;
  latency : Obs.histogram_summary;
      (** seconds; the quantiles are bucketed, within a factor 2{^1/4}
          (about 19%) of the exact order statistic, as [serve_latency]'s
          are; count, mean and max are exact *)
  ewma_mean : float;  (** time-decayed latency mean (recent window) *)
  ewma_std : float;
  predicted_total : float;  (** Σ admission prices, counted ops *)
  observed_total : float;  (** Σ profile counter deltas *)
  residual : float;  (** observed_total / predicted_total; 0 when unpriced *)
  max_ratio : float;  (** worst single-request observed/predicted *)
  violations : int;  (** requests whose ratio exceeded the threshold *)
  picks : int;  (** optimizer decisions routed to this cell *)
  counters : (string * int) list;  (** cumulative counter deltas, sorted *)
}

val create : ?threshold:float -> ?clock:(unit -> float) -> unit -> t
(** [threshold] (default 1.0) is the observed/predicted ratio above
    which a request counts as a residual violation; [clock] (default
    {!Obs.now}) drives the cells' latency EWMAs (half-life 30 s) —
    injectable for deterministic tests.  Each cell keeps its latency
    in an unregistered {!Obs.Histogram}, so its size does not grow
    with the samples it has seen. *)

val observe :
  t ->
  fingerprint:string ->
  strategy:string ->
  predicted:float ->
  observed:float ->
  latency:float ->
  counters:(string * int) list ->
  bool
(** Record one served request; [true] iff it is a residual violation
    ([predicted > 0] and [observed /. predicted > threshold]). *)

val threshold : t -> float

val violations : t -> int
(** Total residual violations across all keys. *)

val is_empty : t -> bool

val record_pick : t -> fingerprint:string -> strategy:string -> unit
(** Count one optimizer routing decision against the cell (creating it
    if needed).  Surfaced as [picks] in summaries/JSON and as a sample
    of the [serve_fp_picks] counter family in {!openmetrics}. *)

val observations : t -> fingerprint:string -> strategy:string -> int * float
(** The cell's observation count and time-decayed latency mean, in
    O(1) — [(0, 0.)] until the cell has served an observation.  This is
    all the adaptive optimizer learns from: it explores the arms with
    the fewest observations and then ranks them by the mean, so routing
    tracks the same online estimate the summaries export. *)

val summaries : t -> summary list
(** All keys, in (fingerprint, strategy) order.  The store keeps its
    cells in that order, so this sorts nothing. *)

val top_by_p99 : ?k:int -> t -> summary list
(** The [k] (default 5) keys with the highest latency p99, descending. *)

val outliers : t -> summary list
(** Keys whose worst observed/predicted ratio exceeds the threshold,
    sorted by [max_ratio] descending. *)

val to_json : t -> Obs.Json.t
(** [{"threshold": τ, "violations": n, "fingerprints": [summary…]}] —
    the ["telemetry"] member spliced into [serve --stats-json]. *)

val openmetrics : t -> Obs.Openmetrics.summary list
(** One labelled [serve_fp_latency] summary series per
    (fingerprint × strategy), then, for each cell the optimizer routed
    to, one sample of the [serve_fp_picks] counter family (no
    quantiles: exposed as [treequery_serve_fp_picks_total{fingerprint,
    strategy}]), both in {!summaries} order, for
    {!Obs.Openmetrics.render}'s [extra].  Each series equals what the
    cell's current summary says.  Only the cells that {!observe} or
    {!record_pick} touched since the previous call are recomputed; the
    others reuse the series built then. *)

val to_table : ?k:int -> t -> string
(** The [treequery top]-style end-of-run table: top-[k] (default 5)
    fingerprints by p99 plus residual outliers.  Empty string when no
    requests were recorded. *)
