(** Observability for the query engine: hierarchical tracing spans, named
    counters and reports serialisable to text and JSON.

    The whole library is OCaml-stdlib-only and is near-zero-cost when
    disabled (the default): every probe is a single flag test.  Enable it
    around a run, evaluate, then {!Report.capture} what happened:

    {[
      Obs.set_enabled true;
      Obs.reset ();
      let answer = Treequery.Engine.eval q tree in
      let report = Obs.Report.capture () in
      print_string (Obs.Report.to_text report)
    ]}

    Counters witness the paper's complexity bounds empirically: e.g. the
    [hornsat_unit_props] counter is exactly the work term of Minoux's
    linear-time algorithm (Figure 3), and [semijoin_passes] is the
    2·|edges| semijoin program of Yannakakis' algorithm (Prop. 4.2). *)

val enabled : unit -> bool
(** Observability is off by default. *)

val set_enabled : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run a thunk with the flag set, restoring the previous value after
    (also on exception). *)

val set_clock : (unit -> float) -> unit
(** Install the clock used for span durations (seconds).  Defaults to
    [Sys.time]; executables that link unix should install a wall/monotonic
    clock such as [Unix.gettimeofday] at startup. *)

val now : unit -> float
(** The current reading of the installed clock, so other subsystems (the
    serving layer's cache TTLs and latency measurements) share the same
    time source as span durations. *)

val reset : unit -> unit
(** Zero every counter, clear every histogram and discard all recorded
    spans and scope profiles. *)

type attr = Int of int | Str of string
(** Typed span/profile attributes — the sizes and identifiers a reader
    needs to interpret a measurement (|D|, |Q|, strategy, plan
    fingerprint). *)

val attr_to_string : attr -> string

type profile = {
  profile_label : string;
  profile_attrs : (string * attr) list;
  profile_counters : (string * int) list;
      (** counter {e deltas} inside the scope: nonzero only, sorted *)
  profile_duration : float;  (** seconds *)
}
(** The scoped-collection result for one labelled region (e.g. one served
    request): what the counters did while the region ran.  See {!Scope}. *)

module Counter : sig
  type t

  val make : string -> t
  (** Create (or look up — names are deduplicated) a registered counter.
      Intended to be called once at module-initialisation time. *)

  val incr : t -> unit
  (** One flag test + one increment; no-op when disabled. *)

  val add : t -> int -> unit

  val record_max : t -> int -> unit
  (** Gauge semantics: keep the maximum value seen (e.g. peak stack
      depth). *)

  val value : t -> int

  val name : t -> string

  val reset_all : unit -> unit

  val snapshot : unit -> (string * int) list
  (** The nonzero counters, sorted by name. *)
end

type histogram_summary = {
  count : int;
  mean : float;  (** seconds *)
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  max : float;
}
(** Quantile digest of a histogram.  Quantiles are approximate (resolved
    to the log-bucket the sample fell in); [max] is exact. *)

(** Log-bucketed value histograms, sized for request latencies: buckets
    grow geometrically (ratio √2) from 1 µs, so the whole range 1 µs – 4 min
    fits in 56 buckets with ≤ ~19% quantile error.

    Unlike counters and spans, histograms are {e not} gated by the enabled
    flag: they are explicit driver-level instruments (the serving layer's
    per-request latency), created and fed deliberately, not inline probes
    sprinkled through the hot paths — and their summaries must be
    available for the driver's plain-text report even when tracing is
    off.

    They have two users: the serving layer's per-request latency (one
    registered histogram, [serve_latency]) and the telemetry cost store,
    whose every (fingerprint × strategy) cell keeps its latency in an
    unregistered one from {!create}. *)
module Histogram : sig
  type t

  val make : string -> t
  (** Create (or look up — names are deduplicated) a registered
      histogram. *)

  val create : unit -> t
  (** A fresh unregistered histogram: never listed in {!snapshot} or
      reports, untouched by {!reset_all}, and never redirected into a
      {!Shard} twin — observations always land in it directly, so two
      domains must not feed it at once (the cost store feeds its cells
      on the admitting domain, after the pool returns).  Its {!name} is
      [""]. *)

  val observe : t -> float -> unit
  (** Record one sample (seconds; negative samples are clamped to 0). *)

  val count : t -> int

  val percentile : t -> float -> float
  (** [percentile h q] for [q ∈ \[0, 1\]]; 0 when empty. *)

  val mean : t -> float

  val max_value : t -> float

  val summary : t -> histogram_summary

  val name : t -> string

  val merge : into:t -> t -> unit
  (** [merge ~into src] folds [src] into [into]: bucket-wise count
      addition (every histogram shares the one fixed √2-ratio bucket
      layout, so this is total — no interpolation, no failure case),
      [count] and [sum] add, [max] takes the larger.  [src] is left
      unchanged.  This is how domain-local shards fold their private
      twins into the registered histogram at {!Shard.merge} time. *)

  val clear : t -> unit
  (** Zero this histogram only (e.g. between serving runs in one
      process). *)

  val reset_all : unit -> unit

  val snapshot : unit -> (string * histogram_summary) list
  (** The nonempty histograms, sorted by name. *)
end

module Span : sig
  val with_ : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
  (** [with_ name f] runs [f] inside a span.  When enabled, the span
      records its start, duration and [attrs], and nests under the
      innermost enclosing span (spans opened during [f] become children).
      The span is recorded even when [f] raises.  When disabled this is
      just [f ()]. *)

  val set_attr : string -> attr -> unit
  (** Attach (or overwrite) an attribute on the innermost open span —
      for values only known mid-flight, e.g. a result size.  No-op when
      disabled or when no span is open. *)
end

(** Scoped collection: attribute counter increments and wall time to a
    labelled region (one served request, one batch rep) instead of the
    global blob.  A scope diffs a snapshot of every registered counter
    around the region, so interleaved sequential regions each see exactly
    their own work; a nested scope's counts are also visible to its
    enclosing scope, as expected of deltas. *)
module Scope : sig
  val collect : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a * profile
  (** Run the thunk and return its result with the region's profile.
      When disabled the profile is empty (no counters move). *)

  val record : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
  (** Like {!collect} but appends the profile to a global list that
      {!Report.capture} picks up; the profile is recorded even when the
      thunk raises.  No-op wrapper when disabled. *)

  val recorded : unit -> profile list
  (** Profiles recorded since the last {!reset}, oldest first. *)

  val note : profile -> unit
  (** Append a profile obtained from {!collect} to the recorded list —
      for callers that need to inspect a profile (e.g. to feed a
      telemetry store) {e and} have {!Report.capture} pick it up.
      No-op when disabled. *)
end

(** Domain-local observability shards, the race-freedom mechanism behind
    parallel serving: a parallel executor creates one shard per task,
    wraps the task in {!Shard.run} (on whichever domain picks it up),
    and folds the completed shard into the global state with
    {!Shard.merge} on the publishing domain.

    While a shard is installed in a domain, that domain's counter bumps
    go to the shard's private arrays (additive counters sum-merged,
    {!Counter.record_max} gauges max-merged), histogram observations go
    to private twins (bucket-wise {!Histogram.merge}d), and spans /
    scope profiles collect in the domain's own state and drain into the
    shard when [run] returns — no instrumented code ever writes memory
    another domain is writing.

    Merging shards in task order on one domain makes the merged counter
    totals, profile order and span order deterministic regardless of how
    tasks were scheduled.  The protocol relies on the publishing domain
    quiescing the workers before merging (a pool's [run] returns only
    after every task finished), so the global cells are stable while
    workers run. *)
module Shard : sig
  type t

  val create : unit -> t
  (** A fresh, empty shard.  Cheap — intended per task, not per domain. *)

  val run : t -> (unit -> 'a) -> 'a
  (** Run the thunk with this shard installed in the current domain,
      restoring the domain's previous observability state after (also on
      exception).  Safe on any domain, including the main one (useful
      for deterministic tests without spawning domains). *)

  val merge : t -> unit
  (** Fold the shard into the global counters, histograms, span forest
      (grafting worker spans under the innermost span currently open on
      the calling domain, and replaying them through a live streaming
      trace sink children-before-parents) and recorded profiles.  Call
      on the publishing domain, after the task completed, at most once
      per shard. *)
end

(** Minimal JSON values — enough to serialise reports and read them back
    without an external dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_failure of { pos : int; msg : string }

  val to_string : t -> string

  val of_string : string -> t
  (** @raise Parse_failure on syntax errors. *)

  val member : string -> t -> t option

  val write_raw : string -> string -> unit
  (** [write_raw path contents] — the one file-writing helper every CLI
      sink goes through.  ["-"] writes to stdout; any other path is
      opened, written and closed under [Fun.protect] so the fd is
      released even when the write raises. *)

  val write_file : string -> t -> unit
  (** {!write_raw} of [to_string j] plus a trailing newline. *)
end

module Report : sig
  type span = {
    name : string;
    start : float;  (** seconds, absolute clock reading; 0 when unknown *)
    duration : float;
    attrs : (string * attr) list;
    children : span list;
  }

  type t = {
    spans : span list;
    counters : (string * int) list;
    histograms : (string * histogram_summary) list;
    profiles : profile list;
  }

  val empty : t

  val is_empty : t -> bool

  val capture : unit -> t
  (** Snapshot the completed spans, nonzero counters, nonempty histograms
      and scope profiles recorded since the last {!reset}.  With
      observability disabled throughout (and no histogram fed), the
      result is {!empty}.

      A span is frozen when it closes and never changes afterwards, so
      the report shares its spans with the live forest and with every
      other capture: capturing costs one list cell per retained root
      span and per retained profile, whatever the size of the forest. *)

  val span_count : t -> int
  (** Total spans in the forest (every node, not just roots). *)

  val to_text : t -> string
  (** Indented span tree with millisecond durations and attributes, then
      a counter table, histogram quantiles and per-scope profiles. *)

  val to_json : t -> string

  val to_json_value : t -> Json.t
  (** The {!Json.t} value {!to_json} serialises — for callers that splice
      extra sections (e.g. the serving layer's telemetry summary) into
      the stats document before writing it. *)

  exception Malformed of string

  val of_json : string -> t
  (** Inverse of {!to_json}: [to_json (of_json s) = s] for any [s]
      produced by {!to_json} (new fields are omitted when empty, so
      pre-existing reports round-trip unchanged too). @raise Malformed *)
end

(** Chrome trace-event export: one complete ("ph":"X") event per span,
    loadable in Perfetto or chrome://tracing.  Timestamps are
    microseconds relative to the earliest span start. *)
module Trace : sig
  val of_report : Report.t -> Json.t
  (** Convert a captured report's span forest; the event count equals
      {!Report.span_count}. *)

  val event_count : Json.t -> int
  (** Number of entries in the ["traceEvents"] array (0 if absent). *)

  type sink

  val start_stream : unit -> sink
  (** Subscribe to span completions: every span finishing after this
      call is appended to the sink as it completes (children before
      parents — event order is irrelevant to the format); a span that
      completes inside {!Shard.run} is appended when its shard merges,
      so each span is streamed exactly once.  Only one
      sink can be live at a time; starting a new one replaces the
      previous subscription. *)

  val stop_stream : sink -> Json.t
  (** Unsubscribe and return the accumulated trace document. *)
end

(** OpenMetrics text exposition of a captured report's counters and
    histogram summaries (metric names are prefixed [treequery_]; the
    exposition ends with [# EOF]). *)
module Openmetrics : sig
  type summary = {
    metric : string;  (** unprefixed metric name, e.g. ["serve_fp_latency"] *)
    labels : (string * string) list;
        (** label set distinguishing the series, e.g. fingerprint and
            strategy; values are escaped per the exposition format *)
    quantiles : (string * float) list;
        (** quantile label → seconds; empty for a counter series *)
    sum : float;  (** seconds; unused by a counter series *)
    count : int;
  }
  (** A labelled series from the telemetry layer.  With quantiles it is
      a latency summary (a cost-store cell's histogram), rendered as
      [treequery_<metric>_seconds{labels,quantile="q"} v] lines plus
      [_count]/[_sum].  Without quantiles it is a counter (the
      per-fingerprint optimizer picks), rendered as
      [treequery_<metric>_total{labels} count] under
      [# TYPE treequery_<metric> counter]. *)

  type gauge = {
    gname : string;  (** unprefixed metric name, e.g. ["build_info"] *)
    ghelp : string;  (** [# HELP] text (escaped on render) *)
    glabels : (string * string) list;
    gvalue : float;
  }
  (** A labelled gauge sample, rendered as
      [treequery_<gname>{labels} v] with [# TYPE .. gauge]/[# HELP]
      header lines. *)

  val gauge :
    ?labels:(string * string) list -> ?help:string -> string -> float -> gauge
  (** [gauge name v] with optional labels and help text. *)

  val escape_label : string -> string
  (** Escape a label value per the exposition format: backslash, double
      quote, and newline become two-character escape sequences. *)

  val sanitize : string -> string
  (** Map a name onto the metric-name alphabet
      ([[a-zA-Z0-9_:]]; anything else becomes [_]). *)

  val render : ?gauges:gauge list -> ?extra:summary list -> Report.t -> string
  (** [gauges] (default none) prepends gauge samples before the
      report's counters; [extra] (default none) appends labelled
      summaries and counters after the report's counters and histograms,
      one family per metric name, before
      [# EOF].  Every metric family carries [# HELP] and [# TYPE]
      lines. *)
end

(** Declarative complexity attestation: bounds tie a witnessing counter
    to the paper claim it certifies and the input-size term it must scale
    against.  [treequery attest] sweeps each registered bound's term,
    fits the observed log-log slope with {!fit_slope} and fails when it
    exceeds [exponent] beyond tolerance. *)
module Bound : sig
  type t = {
    id : string;  (** stable identifier, e.g. ["datalog-grounding"] *)
    claim : string;  (** the theorem/figure being attested *)
    counter : string;  (** the witnessing counter *)
    term : string;  (** the input-size term swept, e.g. ["|D|"] *)
    exponent : float;  (** claimed log-log slope of counter vs term *)
  }

  val register :
    id:string -> claim:string -> counter:string -> term:string -> exponent:float -> t
  (** Add a bound to the registry (idempotent per [id]). *)

  val all : unit -> t list
  (** Registration order. *)

  val find : string -> t option

  val fit_slope : (float * float) list -> float
  (** Least-squares slope of log y vs log x.  Points with a nonpositive
      coordinate are skipped; fewer than two usable points fit 0. *)
end
