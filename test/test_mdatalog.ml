open Treekit
open Helpers
module D = Mdatalog

let parse = D.Parser.parse

let test_parser () =
  let p =
    parse
      {| p0(X) :- lab(X, "l").
         p0(X0) :- nextsibling(X0, X), p0(X).
         p(X0) :- firstchild(X0, X), p0(X).
         p0(X) :- p(X).
         ?- p. |}
  in
  Alcotest.(check int) "rules" 4 (List.length p.rules);
  Alcotest.(check string) "query" "p" p.query;
  Alcotest.(check (list string)) "intensional" [ "p0"; "p" ] (D.Ast.intensional p);
  Alcotest.(check bool) "well-formed" true (D.Ast.check p = Ok ())

let test_parser_roundtrip () =
  let p = D.Examples.has_ancestor_labeled "z" in
  let printed = Format.asprintf "%a" D.Ast.pp_program p in
  let p2 = parse printed in
  Alcotest.(check bool) "roundtrip" true (p = p2)

let test_parser_errors () =
  (* the shared positioned error, at the offending token's offset *)
  let error_at what input expected =
    match parse input with
    | exception Treekit.Parse_error.Error { pos; _ } ->
      Alcotest.(check int) what expected pos
    | _ -> Alcotest.failf "%s: parsed" what
  in
  error_at "missing query" "p(X) :- root(X). " 17;
  error_at "binary as unary" "p(X) :- firstchild(X). ?- p." 8;
  error_at "head not intensional" "root(X) :- leaf(X). ?- root." 0;
  error_at "lab without label" "p(X) :- lab(X). ?- p." 8;
  error_at "dangling body" "p(X) :- " 8

let test_check_rejects () =
  let unsafe =
    { D.Ast.rules = [ { head = "p"; head_var = "X"; body = [ U (Root, "Y") ] } ];
      query = "p" }
  in
  Alcotest.(check bool) "unsafe rule" true (Result.is_error (D.Ast.check unsafe));
  let cyclic =
    parse
      {| p(X) :- firstchild(X, Y), nextsibling(X, Y). ?- p. |}
  in
  Alcotest.(check bool) "cyclic rule" true (Result.is_error (D.Ast.check cyclic))

let test_example_31 () =
  let t = fig2_tree () in
  (* P marks the (proper) ancestors of nodes labeled "b": nodes 0 and 4 *)
  let p = D.Examples.has_ancestor_labeled "b" in
  check_nodeset "run" (Nodeset.of_list 7 [ 0; 4 ]) (D.Eval.run p t);
  check_nodeset "naive" (Nodeset.of_list 7 [ 0; 4 ]) (D.Eval.run_naive p t);
  (* for label d: only node 4 and the root are ancestors of node 6 *)
  let pd = D.Examples.has_ancestor_labeled "d" in
  check_nodeset "label d" (Nodeset.of_list 7 [ 0; 4 ]) (D.Eval.run pd t);
  (* no ancestor of an a-labeled node other than 0, 1 (2 is a; 0 and 1 above
     it; 4's subtree has no a) *)
  let pa = D.Examples.has_ancestor_labeled "a" in
  check_nodeset "label a" (Nodeset.of_list 7 [ 0; 1 ]) (D.Eval.run pa t)

let test_child_sugar () =
  let t = fig2_tree () in
  let q = parse {| q(X) :- child(X, Y), lab(Y, "b"). ?- q. |} in
  check_nodeset "parents of b" (Nodeset.of_list 7 [ 0; 4 ]) (D.Eval.run q t);
  let q2 = parse {| q(Y) :- child(X, Y), lab(X, "b"). ?- q. |} in
  check_nodeset "children of b" (Nodeset.of_list 7 [ 2; 3 ]) (D.Eval.run q2 t)

let test_tau_plus_unaries () =
  let t = fig2_tree () in
  let eval src = D.Eval.run (parse src) t in
  check_nodeset "root" (Nodeset.of_list 7 [ 0 ]) (eval {| q(X) :- root(X). ?- q. |});
  check_nodeset "leaves" (Nodeset.of_list 7 [ 2; 3; 5; 6 ])
    (eval {| q(X) :- leaf(X). ?- q. |});
  check_nodeset "first siblings" (Nodeset.of_list 7 [ 0; 1; 2; 5 ])
    (eval {| q(X) :- firstsibling(X). ?- q. |});
  check_nodeset "last siblings" (Nodeset.of_list 7 [ 0; 3; 4; 6 ])
    (eval {| q(X) :- lastsibling(X). ?- q. |});
  check_nodeset "dom" (Nodeset.universe 7) (eval {| q(X) :- dom(X). ?- q. |})

let test_env_predicates () =
  let t = fig2_tree () in
  let q = parse {| q(Y) :- start(X), firstchild(X, Y). ?- q. |} in
  let env = [ ("start", Nodeset.of_list 7 [ 0; 4 ]) ] in
  check_nodeset "env" (Nodeset.of_list 7 [ 1; 5 ]) (D.Eval.run ~env q t);
  Alcotest.(check bool) "unbound raises" true
    (match D.Eval.run q t with
    | exception D.Eval.Unbound_predicate "start" -> true
    | _ -> false)

let random_program seed =
  (* small random monadic datalog programs over τ⁺ ∪ {Child} with
     tree-shaped rules of 1–2 binary atoms *)
  let rng = Random.State.make [| seed |] in
  let preds = [| "p"; "q"; "r" |] in
  let pick arr = arr.(Random.State.int rng (Array.length arr)) in
  let unary () : D.Ast.unary =
    match Random.State.int rng 6 with
    | 0 -> Lab (pick Generator.labels_abc)
    | 1 -> Root
    | 2 -> Leaf
    | 3 -> Last_sibling
    | 4 -> Pred (pick preds)
    | _ -> Dom
  in
  let binary () : D.Ast.binary =
    match Random.State.int rng 3 with
    | 0 -> First_child
    | 1 -> Next_sibling
    | _ -> Child
  in
  let rule () : D.Ast.rule =
    let head = pick preds in
    match Random.State.int rng 3 with
    | 0 -> { head; head_var = "X"; body = [ U (unary (), "X") ] }
    | 1 ->
      let b = binary () in
      let flip = Random.State.bool rng in
      {
        head;
        head_var = "X";
        body =
          [
            (if flip then D.Ast.B (b, "X", "Y") else B (b, "Y", "X")); U (unary (), "Y");
          ];
      }
    | _ ->
      {
        head;
        head_var = "X";
        body = [ B (binary (), "X", "Y"); B (binary (), "Y", "Z"); U (unary (), "Z") ];
      }
  in
  let nrules = 2 + Random.State.int rng 5 in
  let rules = List.init nrules (fun _ -> rule ()) in
  (* every predicate used in a body must have at least one rule, or
     evaluation would see an unbound predicate *)
  let heads = List.map (fun (r : D.Ast.rule) -> r.head) rules in
  let missing =
    List.filter (fun p -> not (List.mem p heads)) (Array.to_list preds)
  in
  let filler p : D.Ast.rule =
    { head = p; head_var = "X"; body = [ U (Lab (pick Generator.labels_abc), "X") ] }
  in
  { D.Ast.rules = rules @ List.map filler missing; query = "p" }

let program_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 5_000 in
    let* tseed = int_range 0 5_000 in
    let* n = int_range 1 25 in
    return (random_program seed, random_tree ~seed:tseed ~n ()))

let prop_hornsat_equals_naive =
  qtest ~count:200 "grounding+Minoux = naive fixpoint" program_gen
    (fun (p, t) ->
      QCheck2.assume (D.Ast.check p = Ok ());
      Nodeset.equal (D.Eval.run p t) (D.Eval.run_naive p t))

let prop_tmnf_preserves_semantics =
  qtest ~count:200 "TMNF translation preserves answers" program_gen
    (fun (p, t) ->
      QCheck2.assume (D.Ast.check p = Ok ());
      let tm = D.Tmnf.of_program p in
      D.Tmnf.is_tmnf tm && Nodeset.equal (D.Eval.run p t) (D.Eval.run tm t))

let test_tmnf_shapes () =
  (* Example 3.1's program is already in TMNF — the translation must
     recognise and preserve that *)
  Alcotest.(check bool) "Example 3.1 already TMNF" true
    (D.Tmnf.is_tmnf (D.Examples.has_ancestor_labeled "b"));
  let p =
    parse
      {| p(X) :- child(X, Y), lab(Y, "b"), leaf(Y), lastsibling(X).
         ?- p. |}
  in
  let tm = D.Tmnf.of_program p in
  Alcotest.(check bool) "is TMNF" true (D.Tmnf.is_tmnf tm);
  Alcotest.(check bool) "original not TMNF (Child, 4 atoms)" true
    (not (D.Tmnf.is_tmnf p));
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Format.asprintf "%a" D.Ast.pp_rule r)
        true (D.Tmnf.is_tmnf_rule r))
    tm.rules

let test_tmnf_size_linear () =
  (* the TMNF translation is linear in program size *)
  let sizes =
    List.map
      (fun k ->
        let body =
          List.concat
            (List.init k (fun i ->
                 [
                   D.Ast.B
                     ( First_child,
                       Printf.sprintf "X%d" i,
                       Printf.sprintf "X%d" (i + 1) );
                 ]))
        in
        let p =
          { D.Ast.rules = [ { head = "p"; head_var = "X0"; body } ]; query = "p" }
        in
        List.length (D.Tmnf.of_program p).rules)
      [ 2; 4; 8; 16 ]
  in
  match sizes with
  | [ s2; s4; s8; s16 ] ->
    Alcotest.(check bool) "roughly doubling" true
      (s4 < 3 * s2 && s8 < 3 * s4 && s16 < 3 * s8)
  | _ -> assert false

let test_ground_size_linear_in_tree () =
  let p = D.Examples.has_ancestor_labeled "b" in
  let size n =
    D.Eval.ground_size p (random_tree ~seed:9 ~n ())
  in
  let s1 = size 500 and s2 = size 1000 and s4 = size 2000 in
  (* Theorem 3.2: O(|P| · |Dom|) — doubling the tree roughly doubles the
     ground program *)
  Alcotest.(check bool) "linear growth" true
    (float_of_int s2 /. float_of_int s1 < 2.5
    && float_of_int s4 /. float_of_int s2 < 2.5
    && s2 > s1 && s4 > s2)

let test_grounding_example () =
  (* ground program of Example 3.1 on the 3-node tree of Example 3.3:
     a root with one child that has one right sibling (FirstChild(1,2),
     NextSibling(2,3)), node 3 labeled L *)
  let t =
    Tree.of_builder (Tree.Node ("x", [ Node ("x", []); Node ("l", []) ]))
  in
  let p = D.Examples.has_ancestor_labeled "l" in
  check_nodeset "P = {root}" (Nodeset.of_list 3 [ 0 ]) (D.Eval.run p t)

let suite =
  [
    Alcotest.test_case "parser" `Quick test_parser;
    Alcotest.test_case "parser roundtrip" `Quick test_parser_roundtrip;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "check rejects bad programs" `Quick test_check_rejects;
    Alcotest.test_case "Example 3.1 program" `Quick test_example_31;
    Alcotest.test_case "Child sugar" `Quick test_child_sugar;
    Alcotest.test_case "τ⁺ unary predicates" `Quick test_tau_plus_unaries;
    Alcotest.test_case "environment predicates" `Quick test_env_predicates;
    prop_hornsat_equals_naive;
    prop_tmnf_preserves_semantics;
    Alcotest.test_case "TMNF rule shapes" `Quick test_tmnf_shapes;
    Alcotest.test_case "TMNF output size linear" `Quick test_tmnf_size_linear;
    Alcotest.test_case "ground size linear in |Dom| (Thm 3.2)" `Quick
      test_ground_size_linear_in_tree;
    Alcotest.test_case "Example 3.3 scenario" `Quick test_grounding_example;
  ]
