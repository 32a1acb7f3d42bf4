(** Shared-work execution of a batch of queries against one tree.

    Three kinds of sharing, in pipeline order:

    + {b plan dedup} — requests with the same canonical form evaluate
      once and share the answer node-set (aliased, so treat answers as
      read-only);
    + {b seed-scan grouping} — the distinct labels mentioned across the
      whole batch are materialised through {!Treekit.Tree.label_set}
      up-front, one O(occurrences) scan per label, so every query's
      per-label seed scan afterwards is a cache hit;
    + {b stream prefilter} (opt-in) — when at least two distinct queries
      fall in the streamable conjunctive forward fragment (Section 5),
      they are registered in a per-batch {!Subscribe.Index} and decided
      in a single pass over the document's event stream; the non-matching
      ones short-circuit to the empty answer without touching the
      evaluator (sound because the index's Boolean answer is
      [Eval.query t p ≠ ∅]).  Off by default: the extra document pass
      only pays for itself when many queries have empty answers, so the
      caller chooses.

    Work done is recorded in the [serve_batch_*] / [serve_stream_pruned]
    observability counters and under a [serve:batch] span. *)

type result = {
  answers : Treekit.Nodeset.t array;  (** per request, in input order;
                                          duplicates alias one set *)
  distinct : int;  (** distinct canonical forms in the batch *)
  stream_pruned : int;  (** queries answered by the stream prefilter *)
}

val run_prepared :
  ?pool:Pool.t ->
  ?stream_prefilter:bool ->
  ?on_profile:(Treequery.Engine.prepared -> Obs.profile -> unit) ->
  Treekit.Tree.t ->
  Treequery.Engine.prepared array ->
  result
(** Evaluate already-prepared queries with the sharing above.
    [stream_prefilter] defaults to [false].  [on_profile] is called once
    per distinct plan with its execution's {!Obs.Scope} profile (empty
    when observability is disabled) — the serving layer's telemetry feed
    in share mode; the profile is also recorded for
    {!Obs.Report.capture} either way.

    [pool] (with size > 1) evaluates the distinct representatives in
    parallel through {!Pool.mapi_sharded}; [on_profile] is called in rep
    order on the calling domain after the shards merged — answers,
    counter totals and profile order are identical to the sequential
    path.  Seal the tree
    ({!Treekit.Tree.seal}) before passing a pool; dedup, prewarm and the
    stream prefilter stay on the calling domain (prewarm doubles as the
    label-index seal point for the batch's labels). *)

val run :
  ?stream_prefilter:bool ->
  ?cache:Plan_cache.t ->
  Treekit.Tree.t ->
  Treequery.Engine.query array ->
  result
(** Convenience: look each query up in [cache] (or
    {!Treequery.Engine.prepare} it when no cache is given), then
    {!run_prepared}. *)
