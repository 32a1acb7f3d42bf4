(** Concrete syntax for monadic datalog programs.

    {v
    program  ::= clause* query
    clause   ::= head ":-" atom ("," atom)* "."  |  head "."
    head     ::= name "(" VAR ")"
    atom     ::= name "(" VAR ")"                  (unary)
               | "lab" "(" VAR "," STRING ")"      (node label)
               | name "(" VAR "," VAR ")"          (binary axis)
    query    ::= "?-" name "."
    v}

    Variables are capitalised identifiers, predicate names lower-case.
    Built-in predicate names: [dom], [root], [leaf], [firstsibling],
    [lastsibling] (unary); [lab] (label); [firstchild], [nextsibling],
    [child] (binary).  Any other lower-case name is an intensional (or
    externally supplied) unary predicate.  [%] starts a comment. *)

val parse : string -> Ast.program
(** @raise Treekit.Parse_error.Error at the offending token's offset *)
