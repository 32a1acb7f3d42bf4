(** Computing the subset-maximal arc-consistent pre-valuation
    (Proposition 6.2).

    Two implementations, tested to agree:

    - {!via_hornsat} is the paper's construction verbatim: the problem
      "decide, for each (x,v), whether v ∉ Θ(x)" is phrased as a
      propositional Horn program (one proposition per variable/node pair,
      support clauses per binary atom) and solved with Minoux's algorithm.
      Its cost is linear in the size of the {e materialised} relations,
      which for transitive axes is quadratic in the tree — exactly the
      O(‖A‖·|Q|) bound the paper states.
    - {!direct} is a worklist (AC-3 style) algorithm over node-set
      domains: a variable is revisited only when its domain shrinks, at
      most n times, and each visit revises the other end of its
      incident atoms with one set-at-a-time O(n) axis image — O(n²·|Q|)
      in the worst case, and the fast engine in practice.

    Both return [None] when no arc-consistent pre-valuation exists (some
    domain becomes empty) — in which case the query is unsatisfiable. *)

val direct :
  ?env:Cqtree.Query.env -> Cqtree.Query.t -> Treekit.Tree.t -> Prevaluation.t option

val via_hornsat :
  ?env:Cqtree.Query.env -> Cqtree.Query.t -> Treekit.Tree.t -> Prevaluation.t option

val hornsat_program_size :
  ?env:Cqtree.Query.env -> Cqtree.Query.t -> Treekit.Tree.t -> int
(** Size (atom occurrences) of the Horn program built by {!via_hornsat} —
    the ‖A‖·|Q| measure, reported by benchmarks. *)
