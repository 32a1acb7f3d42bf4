(** Streaming statistics for the serving layer's per-fingerprint cost
    store: a time-decayed EWMA of each cell's latency, the online
    estimate the adaptive optimizer ranks arms by.  A cell's latency
    quantiles live in an {!Obs.Histogram}. *)

(** Exponentially-weighted moving average of mean and variance with a
    configurable half-life in {e clock} seconds: a sample observed one
    half-life after the previous one moves the mean halfway to it.  The
    clock is injectable (default {!Obs.now}) so tests are
    deterministic. *)
module Ewma : sig
  type t

  val create : ?half_life:float -> ?clock:(unit -> float) -> unit -> t
  (** [half_life] (default 30 s) must be > 0. *)

  val observe : t -> float -> unit

  val count : t -> int

  val mean : t -> float
  (** 0 when no samples yet. *)

  val variance : t -> float

  val std : t -> float
end
