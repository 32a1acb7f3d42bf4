(** Streaming evaluation of forward path patterns (Section 5; Olteanu et
    al. [61, 62], transducer networks).

    The matcher consumes the SAX events of a document once, left to right,
    and selects the nodes matched by a {!Path_pattern}.  Its working
    memory is a stack with one small frame per open element — i.e.
    O(depth(tree) · |Q|) bits, independent of document size.  This meets
    (and, by the lower bound of [40] quoted in Section 7, cannot beat) the
    depth-linear memory bound for streaming XPath.

    Each stack frame holds two bitmasks over pattern prefixes: the
    prefixes matched {e exactly} at this node, and those matched at some
    ancestor-or-self (the "sticky" states that descendant edges may extend
    from arbitrarily far above).  One more mask per document holds the
    prefixes matched at a node that has closed, which [Following] edges
    extend. *)

type stats = {
  matches : int;  (** number of selected nodes *)
  peak_depth : int;  (** maximum number of live stack frames *)
  events : int;  (** events consumed *)
}

val run : Treekit.Tree.t -> Path_pattern.t -> on_match:(int -> unit) -> stats
(** Stream the tree's events through the matcher; [on_match] receives each
    selected node (at its [Open] event), in document order. *)

val select : Treekit.Tree.t -> Path_pattern.t -> Treekit.Nodeset.t
(** The selected node set (for cross-checks against {!Xpath.Eval}). *)

val matches : Treekit.Tree.t -> Path_pattern.t -> bool
(** Boolean filtering: does the document match at all? *)

val feed :
  Path_pattern.t ->
  (Treekit.Event.t -> unit) * (unit -> stats)
(** Incremental interface: [let push, finish = feed p in …] — push events
    one at a time (from any source), then read the statistics.  Matched
    nodes are counted in the stats. *)

(** {1 Reusable matcher state}

    [run]/[feed] allocate a fresh matcher per document.  A standing-query
    index matching every incoming document against the same pattern pools
    one matcher instead: [create] once, then [reset] + [push] per
    document.  [reset] restores exactly the post-[create] state
    (property-tested: reset ≡ fresh construction). *)

type t
(** Matcher state for one pattern; reusable across documents. *)

val create : Path_pattern.t -> on_match:(int -> unit) -> t
(** @raise Invalid_argument on an empty pattern or more than 61 steps. *)

val reset : t -> unit
(** Forget all per-document state (stack, counts, peak depth); the
    pattern and [on_match] callback are kept. *)

val push : t -> Treekit.Event.t -> unit
(** @raise Invalid_argument on unbalanced event streams. *)

val stats : t -> stats
