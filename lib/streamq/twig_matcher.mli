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

(** {1 Banks and passes}

    A {!bank} holds the compiled patterns, one slot each: {!add} and
    {!remove} patch it in time proportional to the pattern (slot reuse,
    per-label lists), so a standing-query index keeps one bank for its
    whole life.  A pass ({!t}) holds only the per-document working arrays
    over a bank.  [reset] + [push] match any number of documents with no
    further allocation; [reset] restores exactly the state of a fresh
    {!pass}, also after a truncated stream (property-tested), and grows
    the arrays when the bank has handed out slots the pass has not seen.
    A bank must not change while one of its passes is inside a
    document. *)

type bank

val bank : ?anchored:bool -> unit -> bank
(** An empty bank.  With [~anchored:true] every pattern root may only
    match the document root. *)

val add : bank -> Actree.Twigjoin.node -> int
(** Compile a pattern into a free slot and return the slot.
    @raise Invalid_argument on a pattern with more than {!max_nodes}
    nodes. *)

val remove : bank -> int -> unit
(** Free a slot for the next {!add}.
    @raise Invalid_argument on a slot that holds no pattern. *)

val live : bank -> int
(** Patterns in the bank. *)

type t
(** A pass over a bank: the per-document working state. *)

val pass : bank -> t

val create : ?anchored:bool -> Actree.Twigjoin.node array -> t
(** A pass over a fresh bank holding the patterns, pattern [j] in slot
    [j].  @raise Invalid_argument on a pattern with more than
    {!max_nodes} nodes. *)

val reset : t -> unit
(** Forget all per-document state; the compiled patterns are kept. *)

val push : t -> Treekit.Event.t -> unit
(** @raise Invalid_argument on unbalanced event streams. *)

val matched : t -> int -> bool
(** [matched pass j]: has the pattern in slot [j] matched in the
    document so far? *)

val iter_matched : t -> (int -> unit) -> unit
(** The slots that have matched in the document so far, each once. *)

val stats : t -> int -> stats
(** The statistics of the pattern in slot [j]; [peak_depth] and [events]
    are the pass's. *)
