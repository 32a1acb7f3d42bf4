(** Lock-free snapshot publication for the ops plane.

    The serving (admitting) domain periodically freezes the current
    observability state — merged counters, histogram summaries, span
    forest, per-fingerprint telemetry summaries, caller-supplied gauges —
    into an immutable {!t} and publishes it with a single [Atomic.set].
    Scrape handlers running on the listener domain read the latest
    snapshot with [Atomic.get] and never touch a serving-path mutex.

    Because counters are cumulative and every publish happens after the
    admitting domain has merged its shards, consecutive snapshots carry
    monotonically non-decreasing counter totals (property-tested in
    [test_opsplane]). *)

type t = {
  seq : int;  (** publication sequence number, 1-based and monotone *)
  at : float;  (** wall-clock publish time (Unix epoch seconds) *)
  report : Obs.Report.t;  (** merged counters / histograms / spans *)
  summaries : Obs.Openmetrics.summary list;
      (** per-fingerprint telemetry summaries (frozen at publish) *)
  gauges : Obs.Openmetrics.gauge list;  (** driver-supplied gauges *)
  status : (string * string) list;  (** human key/value lines for /statusz *)
  flight : Obs.Json.t option;  (** flight-recorder dump, when attached *)
}

type publisher
(** An atomic cell holding the latest published snapshot, plus the
    process build identity.  [publish] must be called from a single
    domain (the admitting domain); [latest] is safe from any domain. *)

val create :
  ?version:string ->
  ?strategies:string ->
  ?start_time:float ->
  unit ->
  publisher
(** [version]/[strategies] label the [treequery_build_info] gauge;
    [start_time] (default [Unix.gettimeofday ()] at creation) feeds
    [treequery_process_start_time_seconds]. *)

val start_time : publisher -> float

val publish :
  ?report:Obs.Report.t ->
  ?telemetry:Telemetry.Cost_store.t ->
  ?summaries:Obs.Openmetrics.summary list ->
  ?recorder:Telemetry.Flight_recorder.t ->
  ?gauges:Obs.Openmetrics.gauge list ->
  ?status:(string * string) list ->
  ?at:float ->
  publisher ->
  t
(** Freeze the current state into a snapshot and publish it.  [report]
    defaults to [Obs.Report.capture ()]; [summaries] overrides the
    per-fingerprint summaries otherwise derived from [telemetry]; the
    flight-recorder dump is rendered here (on the publishing domain) so
    scrapes never race the mutable ring.  Returns the published
    snapshot.

    The cost follows what changed since the previous publish: one list
    cell per retained root span and per retained profile (spans are
    frozen when they close and shared, not copied), the series of the
    cost-store cells touched since, and the bounded flight dump. *)

val latest : publisher -> t option
(** The most recently published snapshot ([None] before the first
    {!publish}).  Wait-free; safe from any domain. *)

val seq : publisher -> int
(** Sequence number of the latest snapshot (0 before the first). *)

val build_gauges : publisher -> Obs.Openmetrics.gauge list
(** [treequery_build_info] (value 1, labelled with version and strategy
    set) and [treequery_process_start_time_seconds]. *)

val to_openmetrics : publisher -> t -> string
(** OpenMetrics text exposition of a snapshot: build gauges, then
    driver gauges, counters, histograms and telemetry summaries,
    terminated by [# EOF]. *)

val to_statusz : ?now:float -> publisher -> t -> string
(** Human-readable status page: uptime, snapshot age/sequence, then the
    snapshot's status pairs. *)

val tracez : t -> Obs.Json.t
(** Chrome trace-event document of the snapshot's span forest. *)
