(** Streaming Boolean matching of twig patterns, a whole bank at once.

    Evaluates a set of {!Actree.Twigjoin} tree patterns against one event
    stream bottom-up: at each [Close] event the bank knows, for every
    pattern node q, whether the pattern subtree rooted at q matches below
    (or at) the closing tree node, and propagates two bitmask summaries
    (matched at some child / at some strict descendant) into the parent's
    frame.  Memory is O(depth · |patterns|) bits — the streaming twig
    counterpart of the depth lower bound discussion in Section 7.

    Patterns are compiled into flat int arrays and every label is interned
    once per bank, so an event allocates nothing.  A [Close] evaluates only
    the patterns that can change there: those that mention the closing
    label, those with a wildcard leaf, and those holding a partial match
    at that depth; an idle pattern costs nothing. *)

type stats = {
  matched : bool;  (** does the pattern match anywhere in the document? *)
  match_count : int;  (** number of tree nodes at which the pattern root matches *)
  peak_depth : int;
  events : int;
}

val max_nodes : int
(** The largest pattern a bank accepts (62 nodes): a pattern's nodes are
    the bits of one OCaml [int]. *)

val run : ?anchored:bool -> Treekit.Tree.t -> Actree.Twigjoin.node -> stats
(** With [~anchored:true] the pattern root may only match the document
    root (used for XPath expressions starting with a [child] step). *)

val matches : ?anchored:bool -> Treekit.Tree.t -> Actree.Twigjoin.node -> bool

val feed :
  ?anchored:bool -> Actree.Twigjoin.node -> (Treekit.Event.t -> unit) * (unit -> stats)
(** Incremental interface for external event sources. *)

(** {1 Reusable banks}

    Compilation is paid once at [create]; [reset] + [push] then match any
    number of documents with no further allocation (the standing-query
    index keeps one bank per session).  [reset] restores exactly the
    post-[create] state, also after a truncated stream (property-tested). *)

type t
(** A bank of twig patterns, numbered by their position in the array
    given to {!create}; reusable across documents. *)

val create : ?anchored:bool -> Actree.Twigjoin.node array -> t
(** @raise Invalid_argument on a pattern with more than {!max_nodes}
    nodes. *)

val reset : t -> unit
(** Forget all per-document state; the compiled patterns are kept. *)

val push : t -> Treekit.Event.t -> unit
(** @raise Invalid_argument on unbalanced event streams. *)

val matched : t -> int -> bool
(** [matched bank j]: has pattern [j] matched in the document so far? *)

val stats : t -> int -> stats
(** The statistics of pattern [j]; [peak_depth] and [events] are the
    bank's. *)
