(* Experiments F7, P42, S5 and ablations — the complexity map of Section 7
   measured empirically. *)
open Treekit
open Bench_util
module Q = Cqtree.Query

let sizes = [ 2_000; 4_000; 8_000; 16_000 ]

let tree_of n = Generator.random ~seed:(n * 13 + 1) ~n ~labels:Generator.labels_abc ()

(* ------------------------------------------------------------------ *)

let figure7_data_complexity () =
  header "Figure 7 — empirical data complexity per language/engine";
  let experiments =
    [
      ( "monadic datalog (Thm 3.2)",
        "O(n)",
        fun t ->
          ignore (Mdatalog.Eval.run (Mdatalog.Examples.has_ancestor_labeled "b") t) );
      ( "TMNF datalog",
        "O(n)",
        let tm = Mdatalog.Tmnf.of_program (Mdatalog.Examples.has_ancestor_labeled "b") in
        fun t -> ignore (Mdatalog.Eval.run tm t) );
      ( "Core XPath bottom-up",
        "O(n)",
        let p = Xpath.Parser.parse "//a[b and not(descendant::c)]/following-sibling::*" in
        fun t -> ignore (Xpath.Eval.query t p) );
      ( "acyclic CQ, Yannakakis (4.2)",
        "O(n)",
        let q =
          Q.of_string
            {| q(X) :- lab(X, "a"), child(X, Y), lab(Y, "b"), descendant(X, Z), lab(Z, "c"). |}
        in
        fun t -> ignore (Cqtree.Yannakakis.unary q t) );
      ( "cyclic CQ via X-prop (6.5)",
        "O(n)",
        let q =
          Q.of_string
            {| q :- lab(X, "a"), lab(Y, "b"), descendant(X, Y), descendant(Y, Z), descendant(X, Z). |}
        in
        fun t -> ignore (Actree.Xeval.boolean q t) );
      ( "streaming path matcher",
        "O(n)",
        let p = Streamq.Path_pattern.of_string "//a/b//c" in
        fun t -> ignore (Streamq.Path_matcher.select t p) );
      ( "mon. datalog[X] (Sect. 7)",
        "O(n)",
        let p =
          Mdatalog.Axis_datalog.parse
            {| even(X) :- root(X).
               odd(Y) :- even(X), child(X, Y).
               even(Y) :- odd(X), child(X, Y).
               ?- even. |}
        in
        fun t -> ignore (Mdatalog.Axis_datalog.run p t) );
    ]
  in
  row "%-32s %8s" "engine" "bound";
  List.iter (fun n -> row " %9s" (Printf.sprintf "n=%d" n)) sizes;
  row " %9s\n" "exponent";
  let all_linear = ref true in
  List.iter
    (fun (name, bound, run) ->
      let series =
        List.map
          (fun n ->
            let t = tree_of n in
            (n, time (fun () -> run t)))
          sizes
      in
      let e = fitted_exponent series in
      if e > 1.45 then all_linear := false;
      row "%-32s %8s" name bound;
      List.iter (fun (_, t) -> row " %8.2fms" (ms t)) series;
      row " %9.2f\n" e)
    experiments;
  record "all linear-time engines have fitted exponent < 1.45" !all_linear;

  subheader "exponential naive search vs the polynomial techniques";
  (* a Descendant chain of a-labeled variables whose last variable wants a
     label that never occurs: unsatisfiable, so naive backtracking explores
     every partial chain embedding (exponential in k on deep documents)
     while Yannakakis prunes bottom-up in linear time *)
  let deep =
    Generator.random_deep ~seed:4 ~n:250 ~labels:[| "a" |] ~descend_bias:0.7 ()
  in
  let chain k =
    let atoms =
      List.init k (fun i -> Q.U (Q.Lab (if i = k - 1 then "zzz" else "a"),
                                 Printf.sprintf "V%d" i))
      @ List.init (k - 1) (fun i ->
            Q.A (Axis.Descendant, Printf.sprintf "V%d" i, Printf.sprintf "V%d" (i + 1)))
    in
    { Q.head = []; atoms }
  in
  row "(document: deep a-labeled tree, n = %d, height = %d)\n"
    (Tree.size deep) (Tree.height deep);
  row "%6s %26s %18s\n" "k" "naive backtracking(ms)" "yannakakis(ms)";
  List.iter
    (fun k ->
      let q = chain k in
      let t_naive = time (fun () -> Cqtree.Naive.boolean q deep) in
      let t_y = time (fun () -> Cqtree.Yannakakis.boolean q deep) in
      row "%6d %26.3f %18.3f\n" k (ms t_naive) (ms t_y))
    [ 2; 3; 4 ]

let figure7_combined_complexity () =
  subheader "combined complexity: growth in |Q| at fixed n (Core XPath, PTime)";
  let t = tree_of 4_000 in
  row "%8s %14s %16s\n" "|Q|" "bottom-up(ms)" "via datalog(ms)";
  List.iter
    (fun k ->
      let p = Xpath.Generator.star_chain ~length:k in
      let t_eval = time (fun () -> Xpath.Eval.query t p) in
      let t_dl = time (fun () -> Xpath.To_datalog.eval_via_datalog t p) in
      row "%8d %14.3f %16.3f\n" (Xpath.Ast.size p) (ms t_eval) (ms t_dl))
    [ 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)

let prop42 () =
  header "Prop 4.2 — unary conjunctive Core XPath in O(||A|| * |Q|)";
  let p = Xpath.Parser.parse "descendant::a[child::b]/following-sibling::*[descendant::c]" in
  let cq = Option.get (Xpath.To_cq.to_query p) in
  row "query: %s\n" (Xpath.Ast.to_string p);
  row "%10s %16s %16s %14s\n" "n" "yannakakis(ms)" "bottom-up(ms)" "spec(ms)";
  let agree = ref true in
  let series = ref [] in
  List.iter
    (fun n ->
      let t = tree_of n in
      let t_y = time (fun () -> Cqtree.Yannakakis.unary cq t) in
      let t_e = time (fun () -> Xpath.Eval.query t p) in
      let t_s =
        if n <= 4_000 then ms (time (fun () -> Xpath.Semantics.query t p)) else nan
      in
      if not (Nodeset.equal (Cqtree.Yannakakis.unary cq t) (Xpath.Eval.query t p)) then
        agree := false;
      series := (n, t_y) :: !series;
      row "%10d %16.3f %16.3f %14.3f\n" n (ms t_y) (ms t_e) t_s)
    sizes;
  let e = fitted_exponent !series in
  row "fitted exponent (Yannakakis route): %.2f\n" e;
  record "Prop 4.2: conjunctive XPath via Yannakakis = bottom-up" !agree;
  record "Prop 4.2: linear data complexity (exponent < 1.45)" (e < 1.45)

(* ------------------------------------------------------------------ *)

let naive_blowup () =
  header "Naive spec semantics vs bottom-up algebra (the [33] observation)";
  row "(descendant-or-self chains: rule (P3) re-evaluates the tail path\n";
  row " from every intermediate node, so the literal semantics costs\n";
  row " ~n^k on a k-step chain while the set-at-a-time algebra stays linear)\n";
  let t = Generator.path ~n:400 () in
  row "document: path tree, n = %d\n" (Tree.size t);
  row "%8s %16s %16s\n" "steps" "spec-literal(ms)" "bottom-up(ms)";
  List.iter
    (fun k ->
      let p = Xpath.Generator.star_chain ~length:k in
      let t_naive = time (fun () -> Xpath.Semantics.query t p) in
      let t_fast = time (fun () -> Xpath.Eval.query t p) in
      row "%8d %16.3f %16.3f\n" k (ms t_naive) (ms t_fast))
    [ 1; 2; 3 ];
  let p3 = Xpath.Generator.star_chain ~length:3 in
  let slow = time (fun () -> Xpath.Semantics.query t p3) in
  let fast = time (fun () -> Xpath.Eval.query t p3) in
  record "bottom-up beats spec-literal on star chains (>= 10x)" (fast *. 10.0 < slow)

(* ------------------------------------------------------------------ *)

let stream_memory () =
  header "Streaming memory: O(depth), tight per [40] (Section 7)";
  let p = Streamq.Path_pattern.of_string "//a//b" in
  subheader "fixed size (n = 8191), varying depth";
  row "%10s %10s %14s\n" "depth" "n" "peak frames";
  List.iter
    (fun (mk, label) ->
      let t = mk () in
      let stats = Streamq.Path_matcher.run t p ~on_match:(fun _ -> ()) in
      ignore label;
      row "%10d %10d %14d\n" (Tree.height t + 1) (Tree.size t) stats.peak_depth)
    [
      ((fun () -> Generator.full ~fanout:2 ~depth:12 ()), "binary");
      ((fun () -> Generator.random_deep ~seed:5 ~n:8191 ~labels:Generator.labels_abc ~descend_bias:0.7 ()), "deep-bias");
      ((fun () -> Generator.random_deep ~seed:5 ~n:8191 ~labels:Generator.labels_abc ~descend_bias:0.95 ()), "deeper");
      ((fun () -> Generator.path ~n:8191 ()), "path");
    ];
  subheader "fixed depth (complete binary, depth 9), varying size — peak must not move";
  let peaks =
    List.map
      (fun fanout ->
        let t = Generator.full ~fanout ~depth:9 () in
        let stats = Streamq.Path_matcher.run t p ~on_match:(fun _ -> ()) in
        row "%10d %10d %14d\n" (Tree.height t + 1) (Tree.size t) stats.peak_depth;
        stats.peak_depth)
      [ 2; 3 ]
  in
  record "streaming memory tracks depth, not size"
    (match peaks with [ a; b ] -> a = b | _ -> false);

  subheader "selective dissemination: one pass, many subscriptions";
  let t = Generator.xmark ~seed:7 ~scale:200 () in
  row "document: xmark, n = %d\n" (Tree.size t);
  row "%14s %14s %10s\n" "subscriptions" "time(ms)" "matched";
  List.iter
    (fun k ->
      let index = Subscribe.Index.create () in
      for id = 0 to k - 1 do
        let p =
          Streamq.Path_pattern.random ~seed:id ~length:(1 + (id mod 3))
            ~labels:[| "site"; "item"; "person"; "mail"; "name"; "bidder"; "zzz" |]
            ()
        in
        ignore
          (Subscribe.Index.register index ~id
             (Treequery.Engine.Xpath_query (Streamq.Path_pattern.to_xpath p)))
      done;
      let session = Subscribe.Index.session index in
      let t_match = time (fun () -> Subscribe.Index.match_tree session t) in
      let matched = List.length (Subscribe.Index.match_tree session t) in
      row "%14d %14.2f %10d\n" k (ms t_match) matched)
    [ 10; 100; 1000 ]

(* ------------------------------------------------------------------ *)

let ablation_ac () =
  header "Ablation — Prop 6.2 Horn-SAT reduction vs direct worklist AC";
  row "(the Horn program materialises every R(v,w) pair: ||A||*|Q| with\n";
  row " transitive axes is quadratic in n; the worklist engine uses O(n)\n";
  row " axis images instead — same fixpoint, tested equal)\n";
  let q =
    Q.of_string {| q(X) :- lab(X, "a"), descendant(X, Y), lab(Y, "b"). |}
  in
  row "%8s %16s %18s %20s\n" "n" "direct(ms)" "hornsat(ms)" "horn program size";
  List.iter
    (fun n ->
      let t = tree_of n in
      let t_direct = time (fun () -> Actree.Arc_consistency.direct q t) in
      let t_horn = time (fun () -> Actree.Arc_consistency.via_hornsat q t) in
      let size = Actree.Arc_consistency.hornsat_program_size q t in
      row "%8d %16.3f %18.3f %20d\n" n (ms t_direct) (ms t_horn) size)
    [ 250; 500; 1_000; 2_000 ];
  let t = tree_of 500 in
  record "Horn-SAT and worklist AC agree"
    (match Actree.Arc_consistency.(direct q t, via_hornsat q t) with
    | None, None -> true
    | Some a, Some b -> Actree.Prevaluation.equal a b
    | _ -> false)

let ablation_twig () =
  header "Ablation — twig joins vs generic engines on XMark twigs";
  let twig =
    {
      Actree.Twigjoin.label = Some "person";
      children =
        [
          (Actree.Twigjoin.Child_edge, { label = Some "name"; children = [] });
          ( Actree.Twigjoin.Descendant_edge,
            { label = Some "emailaddress"; children = [] } );
        ];
    }
  in
  let q = Actree.Twigjoin.to_query twig in
  row "twig: person[/name][//emailaddress]\n";
  row "%8s %10s %14s %12s %12s\n" "scale" "|out|" "twigstack(ms)" "yann(ms)" "fig6(ms)";
  let ok = ref true in
  List.iter
    (fun scale ->
      let t = Generator.xmark ~seed:scale ~scale () in
      let t_tw = time (fun () -> Actree.Twigjoin.solutions t twig) in
      let t_y = time (fun () -> Cqtree.Yannakakis.solutions q t) in
      let t_f6 = time (fun () -> Actree.Enumerate.solutions q t) in
      let out = Actree.Twigjoin.solutions t twig in
      if out <> Cqtree.Yannakakis.solutions q t then ok := false;
      row "%8d %10d %14.3f %12.3f %12.3f\n" scale (List.length out) (ms t_tw)
        (ms t_y) (ms t_f6))
    [ 8; 16; 32 ];
  record "twig join = Yannakakis on XMark twig" !ok
