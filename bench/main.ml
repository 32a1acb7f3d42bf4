(* The benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the recorded
   outcomes), then runs one Bechamel micro-benchmark per experiment id.
   `--baseline FILE` / `--check FILE` record and replay the exact counter
   gate instead (see baseline.ml; the committed file is
   bench/counters.json). *)

let experiments =
  [
    ("table1", Exp_structures.table1);
    ("figure1", Exp_structures.figure1);
    ("figure2", Exp_structures.figure2);
    ("figure3", Exp_structures.figure3);
    ("figure4", Exp_structures.figure4);
    ("figure5", Exp_consistency.figure5);
    ("figure6", Exp_consistency.figure6);
    ("thm51", Exp_consistency.thm51);
    ("thm41", Exp_consistency.thm41);
    ("figure7-data", Exp_scaling.figure7_data_complexity);
    ("figure7-combined", Exp_scaling.figure7_combined_complexity);
    ("prop42", Exp_scaling.prop42);
    ("naive-blowup", Exp_scaling.naive_blowup);
    ("stream-memory", Exp_scaling.stream_memory);
    ("ablation-ac", Exp_scaling.ablation_ac);
    ("ablation-twig", Exp_scaling.ablation_twig);
    ("mso-automata", Exp_mso.mso_automata);
    ("corollary52", Exp_mso.corollary52);
    ("fo2", Exp_mso.fo2);
    ("qualified-streaming", Exp_mso.qualified_streaming);
    ("dynlabel", Exp_updates.dynlabel);
    ("yannakakis-relational", Exp_updates.relational_yannakakis);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure id. *)

let bechamel_tests () =
  let open Bechamel in
  let open Treekit in
  let tree n = Generator.random ~seed:(n + 17) ~n ~labels:Generator.labels_abc () in
  let t1k = tree 1_000 and t4k = tree 4_000 in
  let xmark = Generator.xmark ~seed:3 ~scale:8 () in
  let minoux_formula =
    let f = Hornsat.create ~nvars:4_000 in
    let rng = Random.State.make [| 99 |] in
    for _ = 1 to 4_000 do
      ignore
        (Hornsat.add_rule f
           ~head:(Random.State.int rng 4_000)
           ~body:(List.init (Random.State.int rng 3) (fun _ -> Random.State.int rng 4_000)))
    done;
    ignore (Hornsat.add_rule f ~head:0 ~body:[]);
    f
  in
  let cyclic_q =
    Cqtree.Query.of_string
      {| q :- lab(X, "a"), lab(Y, "b"), descendant(X, Y), descendant(Y, Z), descendant(X, Z). |}
  in
  let twig_q =
    Cqtree.Query.of_string
      {| q(X, Y) :- lab(X, "item"), descendant(X, Y), lab(Y, "date"). |}
  in
  let rewrite_q =
    Cqtree.Query.of_string
      {| q(Z) :- lab(X, "a"), descendant(X, Z), lab(Y, "b"), descendant(Y, Z). |}
  in
  let xpath_q = Xpath.Parser.parse "//a[b and not(descendant::c)]/following-sibling::*" in
  let conj_xpath = Xpath.Parser.parse "descendant::a[child::b]/following-sibling::*" in
  let conj_cq = Option.get (Xpath.To_cq.to_query conj_xpath) in
  let pattern = Streamq.Path_pattern.of_string "//a/b//c" in
  let pathstack_specs =
    [ (Some "item", Actree.Twigjoin.Descendant_edge);
      (Some "mail", Actree.Twigjoin.Descendant_edge) ]
  in
  let datalog_p = Mdatalog.Examples.has_ancestor_labeled "b" in
  [
    Test.make ~name:"table1/brute-force-cell"
      (Staged.stage (fun () ->
           Cqtree.Sat_table.brute_force Axis.Descendant Axis.Child ~max_size:4));
    Test.make ~name:"figure1/binary-rep-roundtrip"
      (Staged.stage (fun () -> Binary_rep.to_tree (Binary_rep.of_tree t1k)));
    Test.make ~name:"figure2/stack-structural-join"
      (let all = List.init 1_000 Fun.id in
       Staged.stage (fun () ->
           Relkit.Structural_join.stack_join t1k ~ancestors:all ~descendants:all));
    Test.make ~name:"figure3/minoux-solve"
      (Staged.stage (fun () -> Hornsat.solve minoux_formula));
    Test.make ~name:"figure3/datalog-eval"
      (Staged.stage (fun () -> Mdatalog.Eval.run datalog_p t4k));
    Test.make ~name:"figure4/width2-decomposition"
      (Staged.stage (fun () -> Treewidth.Decomposition.of_data_tree t4k));
    Test.make ~name:"figure5/arc-consistency-cyclic"
      (Staged.stage (fun () -> Actree.Xeval.boolean cyclic_q t4k));
    Test.make ~name:"figure6/enumerate-satisfactions"
      (Staged.stage (fun () -> Actree.Enumerate.solutions twig_q xmark));
    Test.make ~name:"thm51/rewrite"
      (Staged.stage (fun () -> Cqtree.Rewrite.rewrite rewrite_q));
    Test.make ~name:"figure7/xpath-bottom-up"
      (Staged.stage (fun () -> Xpath.Eval.query t4k xpath_q));
    Test.make ~name:"prop42/yannakakis-conjunctive-xpath"
      (Staged.stage (fun () -> Cqtree.Yannakakis.unary conj_cq t4k));
    Test.make ~name:"prop610/pathstack"
      (Staged.stage (fun () -> Actree.Twigjoin.path_stack xmark pathstack_specs));
    Test.make ~name:"stream/path-matcher"
      (Staged.stage (fun () -> Streamq.Path_matcher.select t4k pattern));
    Test.make ~name:"mso/automaton-run"
      (let auto =
         Automata.Automaton.conj
           (Automata.Automaton.every_a_has_b_descendant "a" "b")
           (Automata.Automaton.count_label_mod "c" ~modulus:3 ~residue:1)
       in
       Staged.stage (fun () -> Automata.Automaton.run auto t4k));
    Test.make ~name:"cor52/positive-union"
      (let u =
         Cqtree.Positive.of_strings
           [ {| q :- lab(X, "a"), descendant(X, Y), lab(Y, "b"). |};
             {| q :- lab(X, "b"), following(X, Y), lab(Y, "c"). |} ]
       in
       Staged.stage (fun () -> Cqtree.Positive.boolean u t4k));
    Test.make ~name:"check/differential-sweep"
      (* generation + all 13 oracles on 10 case indices: the cost of one
         unit of `treequery check`, so throughput regressions in any
         engine or in the harness itself show up here *)
      (Staged.stage (fun () ->
           Check.Runner.run { Check.Runner.default with cases = 10 }));
  ]

let run_bechamel () =
  let open Bechamel in
  Bench_util.header "Bechamel micro-benchmarks (one per experiment id)";
  let grouped = Test.make_grouped ~name:"treequery" ~fmt:"%s %s" (bechamel_tests ()) in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2_000 ~quota:(Time.second 0.25) ~stabilize:false ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some [ e ] -> e
          | _ -> nan
        in
        (name, est) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) -> Printf.printf "%-48s %14.1f ns/run\n" name ns)
    (List.sort compare rows)

(* pull "--flag FILE" out of an argument list *)
let rec extract_opt flag = function
  | [] -> (None, [])
  | f :: v :: rest when f = flag ->
    let found, rest = extract_opt flag rest in
    ((match found with Some _ -> found | None -> Some v), rest)
  | a :: rest ->
    let found, rest = extract_opt flag rest in
    (found, a :: rest)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let skip_bechamel = List.mem "--no-bechamel" args in
  let args = List.filter (fun a -> a <> "--no-bechamel") args in
  let baseline_file, args = extract_opt "--baseline" args in
  let check_file, args = extract_opt "--check" args in
  Obs.set_clock Unix.gettimeofday;
  (match baseline_file with Some f -> Baseline.run_baseline f | None -> ());
  (match check_file with Some f -> Baseline.check f | None -> ());
  if baseline_file <> None || check_file <> None then exit 0;
  let selected = if args = [] then List.map fst experiments else args in
  Obs.set_enabled true;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        (* per-experiment counter snapshot: the work done (propagations,
           semijoins, events), not just wall-clock *)
        Obs.reset ();
        f ();
        Bench_util.obs_snapshot name
      | None ->
        Printf.printf "unknown experiment %s (available: %s)\n" name
          (String.concat ", " (List.map fst experiments)))
    selected;
  Obs.set_enabled false;
  if (not skip_bechamel) && args = [] then run_bechamel ();
  Bench_util.summary ()
