(** Crash-grade flight recorder: a fixed-size ring buffer of the most
    recent request profiles, dumped to JSON when something goes wrong
    (shed, degrade, residual violation) or on demand — so post-hoc
    debugging of a bad serving window needs no re-run.

    Pushing is O(1) into a pre-sized circular array; once the buffer
    wraps, exactly the last [capacity] entries are retained (tested in
    [test_telemetry]).  The recorder itself never writes a file: it
    remembers the first trigger reason, and the driver decides at end of
    run whether {!triggered} warrants dumping {!to_json}. *)

type outcome = Served | Shed | Rejected | Violation

val outcome_to_string : outcome -> string
(** ["served"] / ["shed"] / ["rejected"] / ["residual-violation"] *)

type entry = {
  id : int;  (** request id; -1 for batch representatives *)
  fingerprint : string;  (** "" when the request was shed before planning *)
  strategy : string;
  attrs : (string * Obs.attr) list;
  counters : (string * int) list;  (** the request's profile counter deltas *)
  latency : float;  (** seconds *)
  predicted : float;  (** admission price, counted ops; 0 when unpriced *)
  observed : float;  (** Σ profile counter deltas *)
  outcome : outcome;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 256) must be ≥ 1. *)

val capacity : t -> int

val push : t -> entry -> unit

val length : t -> int
(** Entries currently retained (≤ capacity). *)

val total : t -> int
(** Entries ever pushed. *)

val entries : t -> entry list
(** Oldest-first; the last [capacity] pushes. *)

val trigger : t -> string -> unit
(** Note a dump-worthy event.  The first reason is kept (with a count of
    all subsequent ones) so the dump names what went wrong first. *)

val triggered : t -> string option
(** The first trigger reason, if any. *)

val trigger_count : t -> int

val to_json : t -> Obs.Json.t

exception Malformed of string

val of_json : Obs.Json.t -> t
(** Inverse of {!to_json} — [entries], [capacity], [total] and the
    trigger state round-trip exactly. @raise Malformed *)
