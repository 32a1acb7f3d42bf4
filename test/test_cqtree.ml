open Treekit
open Helpers
module Q = Cqtree.Query
module JT = Cqtree.Join_tree
module Y = Cqtree.Yannakakis
module N = Cqtree.Naive
module RW = Cqtree.Rewrite

let all_forward_axes =
  [
    Axis.Child;
    Axis.Descendant;
    Axis.Descendant_or_self;
    Axis.Next_sibling;
    Axis.Following_sibling;
    Axis.Following_sibling_or_self;
    Axis.Following;
  ]

(* ------------------------------------------------------------------ *)
(* parsing and basics *)

let test_parse () =
  let q = Q.of_string {| q(X) :- lab(X, "a"), descendant(X, Y), lab(Y, "b"). |} in
  Alcotest.(check (list string)) "head" [ "X" ] q.head;
  Alcotest.(check int) "atoms" 3 (Q.atom_count q);
  Alcotest.(check (list string)) "vars" [ "X"; "Y" ] (Q.vars q);
  Alcotest.(check bool) "unary" true (Q.is_unary q);
  (* paper names for axes *)
  let q2 = Q.of_string {| q(X) :- child+(X, Y), nextsibling(Y, Z). |} in
  Alcotest.(check bool) "child+ = descendant" true
    (List.mem (Q.A (Axis.Descendant, "X", "Y")) q2.atoms);
  (* boolean *)
  let q3 = Q.of_string {| q :- lab(X, "a"). |} in
  Alcotest.(check bool) "boolean" true (Q.is_boolean q3)

let test_parse_roundtrip () =
  let q = Q.of_string {| q(X, Y) :- lab(X, "a"), following(X, Y), root(Z), ancestor(Y, Z). |} in
  Alcotest.(check bool) "roundtrip" true (Q.of_string (Q.to_string q) = q)

let test_parse_errors () =
  (* the shared positioned error, at the offending token's offset *)
  let error_at what s expected =
    match Q.of_string s with
    | exception Treekit.Parse_error.Error { pos; _ } ->
      Alcotest.(check int) what expected pos
    | _ -> Alcotest.failf "%s: parsed" what
  in
  error_at "unknown axis" "q(X) :- sideways(X, Y)." 8;
  error_at "unsafe head" {|q(Z) :- lab(X, "a").|} 0;
  error_at "lab misuse" "q(X) :- lab(X)." 8;
  error_at "missing paren" "q(X) :- child(X, Y." 18

let test_normalize_forward () =
  let q = Q.of_string {| q(X) :- parent(X, Y), self(Y, Z), lab(Z, "a"). |} in
  let q' = Q.normalize_forward q in
  Alcotest.(check bool) "only forward axes" true
    (List.for_all (function Q.A (a, _, _) -> Axis.is_forward a | Q.U _ -> true) q'.atoms);
  Alcotest.(check bool) "self removed" true
    (List.for_all (function Q.A (Axis.Self, _, _) -> false | _ -> true) q'.atoms);
  (* semantics preserved *)
  let t = fig2_tree () in
  Alcotest.(check bool) "same answers" true (N.solutions q t = N.solutions q' t)

(* ------------------------------------------------------------------ *)
(* join trees and acyclicity *)

let test_acyclicity () =
  let acyclic = Q.of_string {| q(X) :- child(X, Y), child(X, Z), descendant(Y, W). |} in
  Alcotest.(check bool) "tree query acyclic" true (JT.is_acyclic acyclic);
  let cyclic =
    Q.of_string {| q(X) :- child(X, Y), child(Y, Z), descendant(X, Z). |}
  in
  Alcotest.(check bool) "triangle cyclic" false (JT.is_acyclic cyclic);
  let parallel = Q.of_string {| q(X) :- child(X, Y), descendant(X, Y). |} in
  Alcotest.(check bool) "parallel atoms still acyclic" true (JT.is_acyclic parallel);
  let disconnected = Q.of_string {| q(X) :- lab(X, "a"), lab(Y, "b"). |} in
  Alcotest.(check bool) "disconnected acyclic" true (JT.is_acyclic disconnected)

let test_join_tree_rooting () =
  let q = Q.of_string {| q(Y) :- child(X, Y), lab(X, "a"). |} in
  match JT.build q with
  | Error m -> Alcotest.fail m
  | Ok jt ->
    (match jt.components with
    | [ root ] -> Alcotest.(check string) "rooted at head var" "Y" root.var
    | _ -> Alcotest.fail "expected one component")

let test_self_loop_handling () =
  let t = fig2_tree () in
  (* irreflexive self-loop: unsatisfiable *)
  let q = Q.of_string {| q(X) :- child(X, X). |} in
  Alcotest.(check bool) "unsat self-loop" true (N.solutions q t = []);
  Alcotest.(check bool) "yannakakis agrees" true (Y.solutions q t = []);
  (* reflexive-closure self-loop: trivially true *)
  let q2 = Q.of_string {| q(X) :- descendant-or-self(X, X), lab(X, "b"). |} in
  check_nodeset "reflexive loop dropped" (Nodeset.of_list 7 [ 1; 5 ]) (Y.unary q2 t)

(* ------------------------------------------------------------------ *)
(* Yannakakis = naive on acyclic queries *)

let acyclic_case_gen =
  QCheck2.Gen.(
    let* qseed = int_range 0 100_000 in
    let* tseed = int_range 0 100_000 in
    let* nvars = int_range 1 5 in
    let* n = int_range 1 25 in
    let* head_arity = int_range 0 nvars in
    let q =
      Cqtree.Generator.acyclic ~seed:qseed ~nvars
        ~axes:(all_forward_axes @ [ Axis.Parent; Axis.Ancestor; Axis.Preceding ])
        ~labels:Generator.labels_abc ~extra_atom_prob:0.3 ~head_arity ()
    in
    return (q, random_tree ~seed:tseed ~n ()))

let prop_yannakakis_equals_naive =
  qtest ~count:250 "Yannakakis = naive (acyclic, k-ary)" acyclic_case_gen
    (fun (q, t) -> Y.solutions q t = N.solutions q t)

let prop_yannakakis_boolean_unary =
  qtest ~count:200 "Yannakakis boolean/unary agree with solutions" acyclic_case_gen
    (fun (q, t) ->
      let qb = { q with Q.head = [] } in
      let qu = { q with Q.head = [ List.hd (Q.vars q) ] } in
      Y.boolean qb t = (N.solutions qb t <> [])
      && Nodeset.elements (Y.unary qu t)
         = List.map (fun a -> a.(0)) (N.solutions qu t))

let prop_domains_are_arc_consistent =
  (* Full reduction = maximal arc-consistent pre-valuation when each
     variable pair carries one atom.  With parallel atoms Yannakakis merges
     them into one conjunctive constraint, which is strictly stronger than
     per-atom arc-consistency, so there the reduced domains are contained
     in the AC pre-valuation. *)
  qtest ~count:150 "full reduction vs maximal AC pre-valuation"
    acyclic_case_gen (fun (q, t) ->
      let qc = Q.normalize_forward q in
      let has_parallel_atoms =
        let pairs =
          List.filter_map
            (function
              | Q.A (_, x, y) -> Some (if x < y then (x, y) else (y, x))
              | Q.U _ -> None)
            qc.atoms
        in
        List.length pairs <> List.length (List.sort_uniq compare pairs)
      in
      match Actree.Arc_consistency.direct qc t with
      | None ->
        (* unsatisfiable: Yannakakis domains must be all empty *)
        List.for_all (fun (_, s) -> Nodeset.is_empty s) (Y.domains qc t)
      | Some pv ->
        let d = Y.domains qc t in
        List.for_all
          (fun (x, s) ->
            let ac = Actree.Prevaluation.find pv x in
            if has_parallel_atoms then Nodeset.subset s ac else Nodeset.equal s ac)
          d)

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let test_table1_matches_paper () =
  (* the exact table from the paper *)
  let unsat_cells =
    [
      (Axis.Child, Axis.Child);
      (Axis.Child, Axis.Descendant);
      (Axis.Next_sibling, Axis.Child);
      (Axis.Next_sibling, Axis.Descendant);
      (Axis.Next_sibling, Axis.Next_sibling);
      (Axis.Next_sibling, Axis.Following_sibling);
      (Axis.Following_sibling, Axis.Child);
      (Axis.Following_sibling, Axis.Descendant);
    ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          let want = not (List.mem (r, s) unsat_cells) in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s" (Axis.name r) (Axis.name s))
            want (Cqtree.Sat_table.sat r s))
        Cqtree.Sat_table.axes)
    Cqtree.Sat_table.axes

let test_table1_brute_force () =
  (* exhaustive verification over all trees with ≤ 5 nodes *)
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "brute %s/%s" (Axis.name r) (Axis.name s))
            (Cqtree.Sat_table.sat r s)
            (Cqtree.Sat_table.brute_force r s ~max_size:5))
        Cqtree.Sat_table.axes)
    Cqtree.Sat_table.axes

(* ------------------------------------------------------------------ *)
(* Theorem 5.1 rewriting *)

let arbitrary_case_gen =
  QCheck2.Gen.(
    let* qseed = int_range 0 100_000 in
    let* tseed = int_range 0 100_000 in
    let* nvars = int_range 1 4 in
    let* natoms = int_range 1 4 in
    let* n = int_range 1 18 in
    let q =
      Cqtree.Generator.arbitrary ~seed:qseed ~nvars ~natoms
        ~axes:
          (all_forward_axes
          @ [ Axis.Parent; Axis.Ancestor; Axis.Preceding_sibling; Axis.Self ])
        ~labels:Generator.labels_abc ()
    in
    return (q, random_tree ~seed:tseed ~n ()))

let prop_rewrite_preserves_semantics =
  qtest ~count:250 "Theorem 5.1: rewrite preserves semantics" arbitrary_case_gen
    (fun (q, t) -> RW.solutions q t = N.solutions q t)

let prop_rewrite_output_acyclic_forward =
  qtest ~count:150 "Theorem 5.1: outputs are acyclic, star- and Following-free"
    arbitrary_case_gen (fun (q, _) ->
      let { RW.queries; _ } = RW.rewrite q in
      List.for_all
        (fun q' ->
          JT.is_acyclic q'
          && List.for_all
               (function
                 | Q.A (a, _, _) ->
                   List.mem a
                     [
                       Axis.Child;
                       Axis.Descendant;
                       Axis.Next_sibling;
                       Axis.Following_sibling;
                     ]
                 | Q.U _ -> true)
               q'.atoms)
        queries)

let test_rewrite_examples () =
  let t = fig2_tree () in
  (* two ancestors of a shared node *)
  let q =
    Q.of_string
      {| q(Z) :- lab(X, "b"), descendant(X, Z), lab(Y, "a"), descendant(Y, Z). |}
  in
  check_nodeset "shared target" (Nodeset.of_list 7 [ 2; 3 ]) (RW.unary q t);
  let r = RW.rewrite q in
  Alcotest.(check bool) "several branches" true (List.length r.queries >= 2);
  (* unsatisfiable: two distinct parents of one node *)
  let q2 =
    Q.of_string
      {| q :- lab(X, "a"), lab(Y, "b"), child(X, Z), child(Y, Z), descendant(X, Y). |}
  in
  Alcotest.(check bool) "two parents unsat" false (RW.boolean q2 t);
  (* Following is eliminated via fresh variables *)
  let q3 = Q.of_string {| q(X) :- following(X, Y), lab(Y, "d"). |} in
  check_nodeset "following" (Nodeset.of_list 7 [ 1; 2; 3; 5 ]) (RW.unary q3 t)

let test_rewrite_cyclic_query () =
  (* a triangle: child(x,y), child(y,z), descendant(x,z) — equivalent to
     just the two child atoms *)
  let t = fig2_tree () in
  let q =
    Q.of_string {| q(Z) :- child(X, Y), child(Y, Z), descendant(X, Z). |}
  in
  Alcotest.(check bool) "cyclic input" false (JT.is_acyclic q);
  check_nodeset "grandchildren" (Nodeset.of_list 7 [ 2; 3; 5; 6 ]) (RW.unary q t)

let test_rewrite_branch_counts () =
  (* rewriting is exponential in general; sanity-check the bookkeeping *)
  let q =
    Q.of_string
      {| q :- descendant(X, W), descendant(Y, W), descendant(Z, W). |}
  in
  let r = RW.rewrite q in
  Alcotest.(check bool) "explored > produced" true
    (r.branches_explored >= List.length r.queries);
  Alcotest.(check bool) "at least one query" true (r.queries <> [])

(* Theorem 4.1: bounded tree-width evaluation *)
let prop_bounded_tw_equals_naive =
  qtest ~count:200 "Theorem 4.1: tree-decomposition evaluation = naive"
    arbitrary_case_gen (fun (q, t) ->
      Cqtree.Bounded_tw.solutions q t = N.solutions q t)

let test_bounded_tw_examples () =
  let t = fig2_tree () in
  (* a width-2 triangle *)
  let q = Q.of_string {| q(Z) :- child(X, Y), child(Y, Z), descendant(X, Z). |} in
  Alcotest.(check int) "width" 2 (Cqtree.Bounded_tw.decomposition_width q);
  check_nodeset "grandchildren" (Nodeset.of_list 7 [ 2; 3; 5; 6 ])
    (Cqtree.Bounded_tw.unary q t);
  (* subsumes the acyclic case at width 1 *)
  let acyclic = Q.of_string {| q(X) :- lab(X, "a"), descendant(X, Y), lab(Y, "b"). |} in
  Alcotest.(check int) "acyclic width" 1
    (Cqtree.Bounded_tw.decomposition_width acyclic);
  check_nodeset "acyclic agreement" (Y.unary acyclic t)
    (Cqtree.Bounded_tw.unary acyclic t);
  (* boolean *)
  Alcotest.(check bool) "boolean true" true (Cqtree.Bounded_tw.boolean q t);
  let unsat = Q.of_string {| q :- child(X, Y), child(Y, X). |} in
  Alcotest.(check bool) "boolean false" false (Cqtree.Bounded_tw.boolean unsat t)

let suite =
  [
    Alcotest.test_case "parser" `Quick test_parse;
    Alcotest.test_case "parser roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "parser errors" `Quick test_parse_errors;
    Alcotest.test_case "forward normalisation" `Quick test_normalize_forward;
    Alcotest.test_case "acyclicity" `Quick test_acyclicity;
    Alcotest.test_case "join tree rooted at head" `Quick test_join_tree_rooting;
    Alcotest.test_case "self loops" `Quick test_self_loop_handling;
    prop_yannakakis_equals_naive;
    prop_yannakakis_boolean_unary;
    prop_domains_are_arc_consistent;
    Alcotest.test_case "Table 1 = paper" `Quick test_table1_matches_paper;
    Alcotest.test_case "Table 1 = exhaustive search" `Quick test_table1_brute_force;
    prop_rewrite_preserves_semantics;
    prop_rewrite_output_acyclic_forward;
    Alcotest.test_case "rewrite worked examples" `Quick test_rewrite_examples;
    Alcotest.test_case "rewrite cyclic query" `Quick test_rewrite_cyclic_query;
    Alcotest.test_case "rewrite branch bookkeeping" `Quick test_rewrite_branch_counts;
    prop_bounded_tw_equals_naive;
    Alcotest.test_case "Theorem 4.1 examples" `Quick test_bounded_tw_examples;
  ]
