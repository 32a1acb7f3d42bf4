(** The standing-query registry: pub/sub matching of registered queries
    against a stream of incoming documents (the serving model
    inverted).

    Subscriptions are registered by integer ID and deduplicated through
    {!Treequery.Engine.canonical}: identical queries share one index
    entry whose ID list fans out on firing, so a million copies of a
    popular query cost one matcher.  Each distinct entry is routed to a
    class:

    - {e Spine} — the query is a forward path spine
      ({!Streamq.Path_pattern.of_xpath}), or a CQ whose binary atoms
      form one directed path over [child], [descendant] and [following]
      through every variable, each variable with at most one label test
      (a chain); merged into the shared prefix-sharing {!Trie}, where
      all spines are matched at once.  An XPath spine leaves the root
      element, a chain the document node above it.
    - {e Twig} — conjunctive forward path with qualifiers
      ({!Streamq.Xpath_filter.twig_of}) of at most
      {!Streamq.Twig_matcher.max_nodes} nodes; one pattern of the
      index's {!Streamq.Twig_matcher} bank, fed in the same SAX pass.
    - {e Auto} — a registered {!Automata.Automaton} (MSO property),
      advanced through the same pass by its push {!Automata.Automaton.stepper}.
    - {e General} — everything else (other CQs, datalog, non-forward
      XPath): compiled once with {!Treequery.Engine.prepare} and evaluated
      as a Boolean plan on the materialised tree per document.

    One {!match_tree} call therefore streams the document's SAX events
    exactly once through trie + twig bank + automata, and
    fires every matching subscription; Boolean semantics in every class
    agree with one-at-a-time [Engine.eval_boolean] (the [standing-match]
    differential oracle).

    Each class's compiled patterns live once in the index, and
    {!register} / {!unregister} patch them in time proportional to the
    entry (trie states freed and reused, bank slot reuse, per-label
    lists).  Registration/unregistration
    must not run concurrently with matching; sessions are single-threaded
    and parallel document matching uses one session per domain
    ([Serve.Ingest]). *)

type query_class = Spine | Twig | General | Auto

val class_name : query_class -> string

type t

val create : unit -> t

val register : t -> id:int -> Treequery.Engine.query -> query_class
(** Register a subscription; returns the class its canonical entry lives
    in.  @raise Invalid_argument on a duplicate live ID, leaving the
    index unchanged. *)

val register_automaton : t -> id:int -> Automata.Automaton.t -> query_class
(** Register a standing automaton (deduplicated by automaton name);
    always returns {!Auto}.  @raise Invalid_argument on a duplicate live
    ID, leaving the index unchanged. *)

val unregister : t -> id:int -> bool
(** Remove a subscription; [false] if the ID is not live (idempotent —
    churn streams may target already-dead IDs).  When an entry's fan-out
    drops to zero the entry is dropped, and a spine's trie states that
    no other live spine passes through are freed. *)

val live : t -> int
(** Live subscription IDs. *)

val entries : t -> int
(** Distinct canonical entries ([entries <= live]; the gap is dedup
    fan-out). *)

val trie_states : t -> int
(** Trie states in use: they follow the live spines, so after any churn
    they equal those of a fresh index holding only the live ones. *)

val class_counts : t -> (string * int) list
(** Live entries per class, as [(class name, count)]. *)

val slots : t -> (string * int) list
(** Patterns held per class outside the trie, as [(class name, count)]:
    the twig bank's live slots and the automaton and general tables'
    lengths.  Each equals the class's {!class_counts} entry (the
    audit of per-registration state). *)

(** {1 Matching sessions}

    A session owns only per-document working state: the trie pass, a
    pass over the twig bank and the automaton steppers.  It sees every
    registration made between documents without rebuilding anything:
    its arrays grow when the index's capacity has grown.  One session
    per domain. *)

type session

val session : t -> session

val match_tree : session -> Treekit.Tree.t -> int list
(** Match one document: the sorted list of fired subscription IDs.
    Cost: one SAX pass (trie live states + twig bank + automaton steps) plus the compiled Boolean plans of the [General]
    entries plus the fired set; nothing proportional to the registrations
    since the last document. *)

val doc_active_work : session -> int
(** Trie active-state work of the last {!match_tree} (the scaling
    witness). *)
