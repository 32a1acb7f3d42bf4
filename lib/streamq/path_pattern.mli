(** Forward path patterns for streaming evaluation (Section 5).

    A forward path pattern is the streamable core of forward XPath: a
    chain of steps, each reached by [/] (Child) or [//] (Descendant) and
    optionally testing a label — e.g. [//a/b//c].  The first step's edge
    anchors the pattern at the root: [Child] means the root's children,
    [Descendant] anywhere below the root.

    A [Following] step reaches a node that opens after the previous
    step's node has closed (the [following] axis).  Chain-shaped CQs
    use it; {!of_string}, {!of_xpath} and {!random} never produce it. *)

type edge = Child | Descendant | Following

type step = { edge : edge; label : string option }

type t = step list
(** Nonempty; matched top-down. *)

val of_string : string -> t
(** Parse [//a/b//c]-style syntax ([*] for a wildcard).
    @raise Failure on syntax errors. *)

val to_string : t -> string
(** [//a/b//c] syntax; a [Following] step prints as [/following::a]. *)

val length : t -> int

val to_xpath : t -> Xpath.Ast.path
(** The same query as a Core XPath expression (for the in-memory
    cross-check). *)

val of_xpath : Xpath.Ast.path -> t option
(** Recognise an XPath expression of the path-pattern shape (steps along
    [Child]/[Descendant]/[Descendant_or_self]-then-[Child] with only label
    qualifiers).  [None] otherwise. *)

val random :
  ?seed:int -> ?rng:Random.State.t -> length:int -> labels:string array -> unit -> t
(** Random pattern for tests/benchmarks.  An explicit [rng] takes
    precedence over [seed] and is advanced in place. *)
