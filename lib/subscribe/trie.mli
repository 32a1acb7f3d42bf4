(** Merged prefix-sharing trie/NFA over registered path spines — the
    YFilter technique at the core of the standing-query index.

    Every registered spine ({!Streamq.Path_pattern} shape: [/]- and
    [//]-edges with label or wildcard tests) is inserted step by step
    from the shared root state; common prefixes share states, so N
    registered patterns merge into one structure whose size is bounded
    by their distinct prefixes, not by N.  A single SAX pass over a
    document then advances all patterns at once: per [Open] event the
    pass extends [Child] transitions from the states matched exactly at
    the parent and [Descendant] transitions from the states matched at
    any open ancestor (the "sticky" set that {!Streamq.Path_matcher}
    keeps as its [acc] bitmask, here a dense counted set), firing the
    handles attached to every terminal state reached.  Per-document cost
    is O(events · active states + fired), independent of the number of
    registered patterns once their prefixes saturate.

    The trie only ever grows: unregistration detaches handles but keeps
    states, so churn never invalidates in-flight passes structurally —
    pooled passes just grow their arrays when {!states} has increased. *)

type t

val create : unit -> t
(** An empty trie: one root state, no terminals. *)

val states : t -> int

val add : t -> Streamq.Path_pattern.t -> int
(** Insert a spine, sharing every existing prefix; returns the terminal
    state (identical spines return the same state).
    @raise Invalid_argument on the empty pattern. *)

val attach : t -> state:int -> handle:int -> unit
(** Fire [handle] whenever [state] is reached.  Handles are the caller's
    subscription-entry keys; attach each handle to exactly one state. *)

val detach : t -> state:int -> handle:int -> unit

(** {1 Matching passes}

    A [pass] is the pooled working state for matching documents one at a
    time: dense live-state set, stamp arrays sized to the trie.  Passes
    are single-threaded; parallel matching uses one pass per domain. *)

type pass

val pass : t -> pass

val begin_doc : pass -> unit
(** Reset for the next document (O(live states), not O(trie)); also
    grows the working arrays if the trie gained states. *)

val push : pass -> Treekit.Event.t -> unit
(** @raise Invalid_argument on unbalanced event streams. *)

val fired : pass -> int list
(** Handles fired so far in the current document, each at most once,
    unordered. *)

val doc_events : pass -> int

val doc_peak_depth : pass -> int

val doc_active_work : pass -> int
(** Σ over events of the number of exactly-matched states — the cost
    witness for the "document + matched set, not registrations" claim
    (gated as the [subscribe-index-vs-twin] counted claim in
    [bench/claims.ml]). *)
