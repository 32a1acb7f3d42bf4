(** The document-ingest side of the standing-query index: the serving
    model inverted.  Where {!Server} streams N requests at one document,
    ingest streams M generated documents past a churning population of
    registered queries ({!Subscribe.Index}), firing subscriptions per
    document — the [treequery subscribe] subcommand and the CI smoke
    drive this loop.

    Determinism: registrations come from {!Workload.registrations_split}
    (seed-split, prefix-stable), shapes from {!Workload.shapes}, and
    document [i] from its own [(seed, i, salt)]-derived RNG — so fired
    sets are a pure function of the config, and the one-at-a-time twin
    ([one_at_a_time = true]) must produce identical per-document fired
    counts (asserted in CI). *)

type config = {
  seed : int;
  registrations : int;
      (** length of the churn stream; register events within it ≈
          [registrations * (1 - churn)] *)
  docs : int;
  churn : float;
      (** probability an event is an unregistration; [0] = pure
          registration phase before the first document, [> 0] = events
          interleaved at fixed epoch boundaries of the document stream
          (mid-stream churn).  Epochs are a function of [docs] alone, so
          fired sets are identical for every pool size. *)
  scale : int;  (** XMark scale of each generated document *)
  pool : Pool.t option;
      (** parallel per-document matching: chunks of [Pool.size] documents
          matched concurrently through {!Pool.mapi_sharded}, one
          {!Subscribe.Index.session} per slot — counters and spans come
          out as in the sequential run; [None] = sequential (chunk
          size 1) *)
  one_at_a_time : bool;
      (** evaluate every live registration's compiled plan per document
          instead of the shared index — the differential twin *)
  on_chunk : (int -> int -> unit) option;
      (** fired after each matched chunk with (documents matched so far,
          subscriptions fired so far), on the admitting domain after the
          chunk's shard state has been merged — the publication hook the
          ops plane hangs snapshots on ([None] = no-op) *)
}

type summary = {
  events : int;
  registered : int;  (** register events in the stream *)
  unregistered : int;  (** unregistrations that hit a live ID *)
  live : int;  (** live subscriptions after the full stream *)
  entries : int;  (** distinct canonical index entries (dedup fan-out) *)
  trie_states : int;
  class_counts : (string * int) list;
  docs_matched : int;
  fired_total : int;
  fired_per_doc : int array;
  active_work : int;  (** Σ trie active-state work over documents *)
  elapsed : float;  (** wall seconds *)
}

val run : config -> summary

val summary_json : summary -> Obs.Json.t
