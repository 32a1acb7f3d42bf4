open Treekit
open Helpers
module E = Treequery.Engine

let test_planning () =
  let strat s = E.strategy_name (E.plan (E.parse_cq s)) in
  Alcotest.(check string) "acyclic -> yannakakis" "yannakakis"
    (strat {| q(X) :- lab(X, "a"), child(X, Y). |});
  Alcotest.(check string) "cyclic tau1 -> arc consistency" "arc-consistency"
    (strat {| q(X) :- descendant(X, Y), descendant(Y, Z), descendant(X, Z). |});
  Alcotest.(check string) "cyclic mixed -> rewrite" "rewrite-to-acyclic"
    (strat {| q(X) :- child(X, Y), descendant(Y, Z), descendant(X, Z). |});
  Alcotest.(check string) "xpath" "xpath-bottom-up"
    (E.strategy_name (E.plan (E.parse_xpath "//a")));
  Alcotest.(check string) "datalog" "datalog-hornsat"
    (E.strategy_name (E.plan (E.parse_datalog {| p(X) :- root(X). ?- p. |})))

let test_explain_mentions_strategy () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let e = E.explain (E.parse_cq {| q(X) :- lab(X, "a"), child(X, Y). |}) in
  Alcotest.(check bool) "mentions yannakakis" true (contains e "yannakakis");
  Alcotest.(check bool) "mentions acyclic" true (contains e "acyclic");
  let e2 = E.explain (E.parse_xpath "//a[not(b)]") in
  Alcotest.(check bool) "mentions xpath" true (contains e2 "Core XPath");
  let e3 = E.explain (E.parse_datalog {| p(X) :- root(X). ?- p. |}) in
  Alcotest.(check bool) "mentions datalog" true (contains e3 "datalog")

let test_eval_languages_agree () =
  let t = fig2_tree () in
  (* "descendants labeled b" in all three languages *)
  let via_xpath = E.eval (E.parse_xpath "//b") t in
  let via_cq = E.eval (E.parse_cq {| q(X) :- lab(X, "b"), ancestor(X, Y), root(Y). |}) t in
  let via_datalog =
    E.eval
      (E.parse_datalog
         {| mark(X) :- lab(X, "b"), notroot(X).
            notroot(X) :- firstchild(Y, X).
            notroot(X) :- nextsibling(Y, X).
            ?- mark. |})
      t
  in
  check_nodeset "xpath" (Nodeset.of_list 7 [ 1; 5 ]) via_xpath;
  check_nodeset "cq" (Nodeset.of_list 7 [ 1; 5 ]) via_cq;
  check_nodeset "datalog" (Nodeset.of_list 7 [ 1; 5 ]) via_datalog

let test_boolean_and_solutions () =
  let t = fig2_tree () in
  let q = E.parse_cq {| q :- lab(X, "d"). |} in
  Alcotest.(check bool) "boolean true" true (E.eval_boolean q t);
  check_nodeset "boolean eval = {root}" (Nodeset.of_list 7 [ 0 ]) (E.eval q t);
  let q2 = E.parse_cq {| q :- lab(X, "zzz"). |} in
  Alcotest.(check bool) "boolean false" false (E.eval_boolean q2 t);
  let q3 = E.parse_cq {| q(X, Y) :- lab(X, "b"), child(X, Y). |} in
  check_tuples "pairs" [ [| 1; 2 |]; [| 1; 3 |] ] (E.solutions q3 t)

let test_positive_and_axis_datalog () =
  let t = fig2_tree () in
  let u = E.parse_positive [ {| q(X) :- lab(X, "c"). |}; {| q(X) :- lab(X, "d"). |} ] in
  Alcotest.(check string) "positive strategy" "positive-union-rewrite"
    (E.strategy_name (E.plan u));
  check_nodeset "positive eval" (Nodeset.of_list 7 [ 3; 6 ]) (E.eval u t);
  Alcotest.(check bool) "positive boolean" true (E.eval_boolean u t);
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "positive explain" true
    (contains (E.explain u) "Corollary 5.2");
  let d =
    E.parse_axis_datalog
      {| even(X) :- root(X).
         odd(Y) :- even(X), child(X, Y).
         even(Y) :- odd(X), child(X, Y).
         ?- odd. |}
  in
  Alcotest.(check string) "axis-datalog strategy" "datalog-yannakakis-fixpoint"
    (E.strategy_name (E.plan d));
  check_nodeset "odd depths" (Nodeset.of_list 7 [ 1; 4 ]) (E.eval d t);
  Alcotest.(check bool) "axis-datalog explain" true
    (contains (E.explain d) "mon.datalog[X]")

let test_yannakakis_semijoin_count () =
  (* a Yannakakis run performs at most 2·(#atoms) semijoin passes
     (full reducer, Prop. 4.2) *)
  let q = E.parse_cq {| q(X) :- lab(X, "a"), child(X, Y), lab(Y, "b"). |} in
  Alcotest.(check string) "yannakakis plan" "yannakakis"
    (E.strategy_name (E.plan q));
  let atoms = match q with E.Cq_query cq -> Cqtree.Query.atom_count cq | _ -> assert false in
  Obs.reset ();
  ignore (Obs.with_enabled true (fun () -> E.solutions q (fig2_tree ())));
  let passes =
    Option.value ~default:0
      (List.assoc_opt "semijoin_passes" (Obs.Counter.snapshot ()))
  in
  Obs.reset ();
  Alcotest.(check bool)
    (Printf.sprintf "0 < %d passes <= 2*%d" passes atoms)
    true
    (passes > 0 && passes <= 2 * atoms)

(* the work [exec] counts, in a private shard so no counters or spans
   outlive the measurement *)
let counted_work run =
  Obs.with_enabled true @@ fun () ->
  Obs.Shard.run (Obs.Shard.create ()) @@ fun () ->
  E.work (snd (Obs.Scope.collect "work" run))

(* [exec] answers the first head column of a k-ary CQ by evaluating the
   unary projection, not by enumerating every tuple first: answers
   agree with the tuples' first components, and every CQ arm counts
   exactly the projection's work *)
let test_kary_exec_is_the_projection () =
  let q = Cqtree.Query.of_string {| q(X, Y) :- following(X, Y), lab(Y, "a"). |} in
  let proj = { q with Cqtree.Query.head = [ "X" ] } in
  List.iter
    (fun n ->
      let t = Generator.random ~seed:3 ~n ~labels:[| "a"; "b" |] () in
      let firsts =
        Nodeset.of_list n
          (List.map (fun tup -> tup.(0)) (E.solutions (E.Cq_query q) t))
      in
      List.iter
        (fun s ->
          let name = Printf.sprintf "%s, n = %d" (E.strategy_name s) n in
          let p = E.prepare_with s (E.Cq_query q)
          and pp = E.prepare_with s (E.Cq_query proj) in
          check_nodeset (name ^ ": answers") firsts (p.E.exec t);
          Alcotest.(check int) (name ^ ": work of the projection")
            (counted_work (fun () -> pp.E.exec t))
            (counted_work (fun () -> p.E.exec t)))
        (E.strategies (E.Cq_query q)))
    [ 100; 200; 400 ]

(* The price table covers the languages the [price-covers-work] oracle
   does not generate: native datalog (via TMNF), positive unions and
   axis datalog each count no more work than their price *)
let test_price_covers_other_languages () =
  let positive seed =
    let mk seed =
      Cqtree.Generator.arbitrary ~seed ~nvars:3 ~natoms:3
        ~axes:[ Axis.Child; Axis.Descendant; Axis.Following; Axis.Parent ]
        ~labels:Generator.labels_abc ()
    in
    E.Positive_query (Cqtree.Positive.make [ mk seed; mk (seed + 1) ])
  in
  let queries =
    [
      E.Datalog_query (Mdatalog.Examples.has_ancestor_labeled "a");
      E.Datalog_query (Mdatalog.Examples.has_ancestor_labeled "c");
      E.parse_positive [ {| q(X) :- lab(X, "c"). |}; {| q(X) :- lab(X, "d"). |} ];
      E.parse_positive [ {| q :- lab(X, "z1"). |}; {| q :- lab(X, "z2"). |} ];
      positive 1; positive 7; positive 42;
      E.parse_axis_datalog
        {| even(X) :- root(X).
           odd(Y) :- even(X), child(X, Y).
           even(Y) :- odd(X), child(X, Y).
           ?- even. |};
      E.parse_axis_datalog
        {| reach(X) :- root(X).
           reach(Y) :- reach(X), child(X, Y), lab(Y, "a").
           ?- reach. |};
    ]
  in
  List.iter
    (fun n ->
      let t = random_tree ~seed:n ~n () in
      List.iter
        (fun q ->
          let p = E.prepare q in
          let price = E.price p ~n:(float_of_int n) in
          List.iter
            (fun (what, run) ->
              let w = counted_work run in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s, n = %d: %d <= %.0f" (E.fingerprint q) what n w
                   price)
                true
                (float_of_int w <= price))
            [
              ("exec", fun () -> ignore (p.E.exec t));
              ("exec_boolean", fun () -> ignore (p.E.exec_boolean t));
            ])
        queries)
    [ 1; 2; 3; 5; 8; 13; 21; 40; 100; 200 ]

let strategies_gen =
  QCheck2.Gen.(
    let* qseed = int_range 0 100_000 in
    let* tseed = int_range 0 100_000 in
    let* nvars = int_range 1 4 in
    let* natoms = int_range 1 4 in
    let* n = int_range 1 16 in
    let q =
      Cqtree.Generator.arbitrary ~seed:qseed ~nvars ~natoms
        ~axes:
          [
            Axis.Child; Axis.Descendant; Axis.Next_sibling; Axis.Following_sibling;
            Axis.Following; Axis.Parent; Axis.Ancestor;
          ]
        ~labels:Generator.labels_abc ()
    in
    return (q, random_tree ~seed:tseed ~n ()))

let prop_engine_equals_naive =
  qtest ~count:250 "engine (any strategy) = naive" strategies_gen (fun (q, t) ->
      E.solutions (E.Cq_query q) t = Cqtree.Naive.solutions q t)

let prop_engine_boolean =
  qtest ~count:200 "engine boolean = naive boolean" strategies_gen (fun (q, t) ->
      let qb = { q with Cqtree.Query.head = [] } in
      E.eval_boolean (E.Cq_query qb) t = Cqtree.Naive.boolean qb t)

let suite =
  [
    Alcotest.test_case "strategy planning" `Quick test_planning;
    Alcotest.test_case "explain output" `Quick test_explain_mentions_strategy;
    Alcotest.test_case "three languages agree" `Quick test_eval_languages_agree;
    Alcotest.test_case "boolean and k-ary" `Quick test_boolean_and_solutions;
    Alcotest.test_case "positive FO and axis datalog" `Quick
      test_positive_and_axis_datalog;
    Alcotest.test_case "yannakakis semijoin-pass count" `Quick
      test_yannakakis_semijoin_count;
    Alcotest.test_case "k-ary exec evaluates the unary projection" `Quick
      test_kary_exec_is_the_projection;
    Alcotest.test_case "price covers datalog, positive and axis datalog" `Quick
      test_price_covers_other_languages;
    prop_engine_equals_naive;
    prop_engine_boolean;
  ]
