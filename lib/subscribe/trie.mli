(** Merged prefix-sharing trie/NFA over registered path spines — the
    YFilter technique at the core of the standing-query index.

    Every registered spine ({!Streamq.Path_pattern} shape: [Child],
    [Descendant] and [Following] edges with label or wildcard tests) is
    inserted step by step from a start state; common prefixes share
    states, so N registered patterns merge into one structure whose size
    is bounded by their distinct live prefixes, not by N.  A single SAX
    pass over a document then advances all patterns at once: per [Open]
    event the pass extends [Child] transitions from the states matched
    exactly at the parent, [Descendant] transitions from the states
    matched at any open ancestor (the "sticky" set that
    {!Streamq.Path_matcher} keeps as its [acc] bitmask) and [Following]
    transitions from the states matched at a node that has closed,
    firing the handles attached to every terminal state reached.
    Labelled transitions are keyed by (state, interned label), so per
    event the pass makes one probe per live state and touches the
    matching transitions; per-document cost is O(events · live states +
    fired), independent of the number of registered patterns once their
    prefixes saturate.

    Each state counts the registered paths through it.  {!detach} drops
    the count along the path, and a state whose count reaches zero is
    unlinked from its parent and its id reused, so the trie holds only
    the prefixes of live spines and a document never walks a dead one. *)

type t

val create : unit -> t
(** An empty trie: the [Root] start state, no terminals. *)

val states : t -> int
(** States in use: the [Root] start, the [Document] start while a spine
    leaves it, and one per distinct live prefix. *)

(** Where a spine's first step leaves from. *)
type start =
  | Root
      (** the document's root element, as for an XPath spine: [/a] is a
          child of it and [//a] a proper descendant *)
  | Document
      (** the document node above the root element, as for a chain CQ
          whose first variable may be the root element itself: [//a]
          from here is any element labelled [a] *)

val add : t -> start -> Streamq.Path_pattern.t -> handle:int -> int
(** Insert a spine, sharing every existing prefix, and fire [handle]
    whenever its terminal state is reached; returns that state
    (identical spines from the same start share it).  Handles are the
    caller's keys; attach each to one state.
    @raise Invalid_argument on the empty pattern. *)

val detach : t -> state:int -> handle:int -> unit
(** Undo one {!add}: drop [handle] from [state] and one registered path
    from [state] and every state above it, freeing those left with none.
    @raise Invalid_argument when [handle] is not attached to [state]. *)

(** {1 Matching passes}

    A [pass] is the pooled working state for matching documents one at a
    time: the frames of the open nodes, the live and closed sets and
    stamp arrays sized to the trie, all flat arrays, so an event
    allocates nothing.  Passes are single-threaded; parallel matching
    uses one pass per domain.  The trie must not change while a pass is
    inside a document. *)

type pass

val pass : t -> pass
(** A pass ready for a document, as after {!begin_doc}. *)

val begin_doc : pass -> unit
(** Reset for the next document, also after a truncated one
    (O(live states), not O(trie)); grows the working arrays if the trie
    has handed out more state ids, so no array regrows for that inside
    a document. *)

val push : pass -> Treekit.Event.t -> unit
(** @raise Invalid_argument on unbalanced event streams. *)

val iter_fired : pass -> (int -> unit) -> unit
(** The handles fired so far in the current document, each once,
    unordered. *)

val doc_active_work : pass -> int
(** Σ over [Open] events of the number of exactly-matched states — the
    cost witness for the "document + matched set, not registrations"
    claim (gated as the [subscribe-index-vs-twin] counted claim in
    [bench/claims.ml]). *)
