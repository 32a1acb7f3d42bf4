(* The differential-check harness checking itself:
   - the CI smoke: 200 cases through the full oracle registry, zero
     discrepancies (the dune-runtest twin of the nightly 10k run);
   - the fault-injection acceptance test: a mutated galloping
     intersection must be caught and shrunk to a tiny repro;
   - bit-reproducibility of case generation (the repro-line contract);
   - shrinker sanity on both halves of a case. *)

open Check

let run_with ?(cases = 200) ?(seed = 42) oracles =
  Runner.run { Runner.default with cases; seed; oracles }

let test_smoke_200 () =
  let stats = run_with Oracles.all in
  List.iter
    (fun (name, passes, skips, fails) ->
      Alcotest.(check int) (name ^ " fails") 0 fails;
      Alcotest.(check bool)
        (name ^ " ran something")
        true
        (passes + skips = 200);
      (* every oracle must actually exercise its engines on most cases;
         a registry entry that skips everything guards nothing *)
      Alcotest.(check bool) (name ^ " mostly applicable") true (passes >= 50))
    stats.Runner.per_oracle;
  Alcotest.(check int) "no discrepancies" 0 (Runner.discrepancy_count stats)

let test_at_least_four_engine_pairs () =
  (* the acceptance criterion speaks of >= 4 cross-engine pairs; laws
     aside, we have far more — pin the count so it can only grow *)
  let engine_pairs =
    List.filter
      (fun (o : Oracles.t) ->
        not (String.length o.name >= 4 && String.sub o.name 0 4 = "law-"))
      Oracles.all
  in
  Alcotest.(check bool)
    "at least four engine pairs" true
    (List.length engine_pairs >= 4)

let test_control_oracle_clean () =
  let stats = run_with [ Fault.control ] in
  Alcotest.(check int) "control finds nothing" 0
    (Runner.discrepancy_count stats)

let test_injected_bug_caught_and_shrunk () =
  let stats =
    Runner.run
      { Runner.default with cases = 200; oracles = [ Fault.oracle ]; max_failures = 200 }
  in
  let ds = stats.Runner.discrepancies in
  Alcotest.(check bool) "bug caught" true (List.length ds > 0);
  List.iter
    (fun (d : Runner.discrepancy) ->
      let sz = Treekit.Tree.size d.shrunk.Case.tree in
      if sz > 8 then
        Alcotest.failf "case %d shrunk only to %d nodes:\n%s" d.case_index sz
          (Case.to_string d.shrunk);
      (* the shrunk case must still exhibit the failure *)
      match Fault.oracle.Oracles.run d.shrunk with
      | Oracles.Fail _ -> ()
      | _ -> Alcotest.failf "shrunk case %d no longer fails" d.case_index)
    ds

let test_buggy_inter_is_buggy () =
  (* the mutation drops the last galloping probe: {9} inter {0..9} with a
     skewed size ratio loses element 9 *)
  let n = 16 in
  let small = Treekit.Nodeset.of_list n [ 9 ] in
  let big = Treekit.Nodeset.of_list n [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  Alcotest.(check bool)
    "buggy kernel drops the probe" true
    (Treekit.Nodeset.is_empty (Fault.buggy_inter small big));
  Alcotest.(check bool)
    "correct kernel keeps it" false
    (Treekit.Nodeset.is_empty (Treekit.Nodeset.inter small big))

let test_generation_reproducible () =
  List.iter
    (fun (o : Oracles.t) ->
      for case = 0 to 19 do
        let gen () =
          let rng = Gen.rng_for ~seed:7 ~case ~salt:o.name in
          let tree = Gen.tree Gen.default rng in
          let query = o.gen Gen.default rng in
          Case.to_string { Case.tree; query }
        in
        Alcotest.(check string)
          (Printf.sprintf "%s case %d replays" o.name case)
          (gen ()) (gen ())
      done)
    (Oracles.all @ [ Fault.oracle; Fault.control ])

let test_runs_reproducible () =
  let run () =
    let stats = run_with ~cases:50 [ Fault.oracle ] in
    List.map
      (fun (d : Runner.discrepancy) -> (d.case_index, Case.to_string d.shrunk))
      stats.Runner.discrepancies
  in
  Alcotest.(check bool) "two runs give identical discrepancies" true
    (run () = run ())

let test_tree_shrink_candidates () =
  let t =
    Treekit.Generator.random ~seed:5 ~n:30 ~labels:[| "a"; "b"; "c" |] ()
  in
  let count = ref 0 in
  Seq.iter
    (fun t' ->
      incr count;
      let n' = Treekit.Tree.size t' in
      Alcotest.(check bool) "candidate not larger" true
        (n' <= Treekit.Tree.size t);
      (* rebuildability is the real assertion: of_parent_vector validates
         the pre-order invariant and would have raised *)
      Alcotest.(check bool) "candidate nonempty" true (n' >= 1))
    (Shrink.tree_candidates t);
  Alcotest.(check bool) "has candidates" true (!count > 30)

let test_query_shrink_safety () =
  (* every CQ shrink candidate stays well-formed *)
  let rng = Gen.rng_for ~seed:3 ~case:0 ~salt:"shrink" in
  for _ = 1 to 50 do
    match Gen.cq_arbitrary Gen.default rng with
    | Case.Cq _ as q ->
      List.iter
        (fun q' ->
          match q' with
          | Case.Cq cq ->
            (match Cqtree.Query.check cq with
            | Ok () -> ()
            | Error m -> Alcotest.failf "unsafe shrink candidate: %s" m)
          | _ -> Alcotest.fail "shrink changed the query kind")
        (Shrink.query_candidates q)
    | _ -> Alcotest.fail "generator changed the query kind"
  done

let test_minimize_is_greedy_descent () =
  (* minimising with an always-true predicate must reach a 1-node tree *)
  let t = Treekit.Generator.random ~seed:9 ~n:25 ~labels:[| "b" |] () in
  let c = { Case.tree = t; query = Case.Axis_law Treekit.Axis.Child } in
  let shrunk, steps = Shrink.minimize ~still_fails:(fun _ -> true) c in
  Alcotest.(check int) "down to the root" 1 (Treekit.Tree.size shrunk.Case.tree);
  Alcotest.(check bool) "took steps" true (steps > 0)

let test_oracle_lookup () =
  List.iter
    (fun n ->
      match Oracles.find n with
      | Some o -> Alcotest.(check string) "find is by name" n o.Oracles.name
      | None -> Alcotest.failf "oracle %s not found" n)
    (Oracles.names ());
  Alcotest.(check bool) "unknown name" true (Oracles.find "nope" = None)

(* a discrepancy's message is the shrunk case's own, the one its
   repro line replays *)
let test_message_is_the_shrunk_cases () =
  let stats =
    Runner.run { Runner.default with cases = 200; oracles = [ Fault.oracle ]; max_failures = 20 }
  in
  let ds = stats.Runner.discrepancies in
  Alcotest.(check bool) "bug caught" true (ds <> []);
  List.iter
    (fun (d : Runner.discrepancy) ->
      match Fault.oracle.Oracles.run d.shrunk with
      | Oracles.Fail m -> Alcotest.(check string) (Printf.sprintf "case %d" d.case_index) m d.message
      | _ -> Alcotest.failf "shrunk case %d no longer fails" d.case_index)
    ds

let suite =
  [
    Alcotest.test_case "200-case smoke across all oracles" `Quick test_smoke_200;
    Alcotest.test_case "at least four engine pairs" `Quick
      test_at_least_four_engine_pairs;
    Alcotest.test_case "control oracle is clean" `Quick
      test_control_oracle_clean;
    Alcotest.test_case "injected galloping bug caught and shrunk to <= 8 nodes"
      `Quick test_injected_bug_caught_and_shrunk;
    Alcotest.test_case "buggy kernel really drops the last probe" `Quick
      test_buggy_inter_is_buggy;
    Alcotest.test_case "case generation is bit-reproducible" `Quick
      test_generation_reproducible;
    Alcotest.test_case "whole runs are reproducible" `Quick
      test_runs_reproducible;
    Alcotest.test_case "tree shrink candidates stay valid" `Quick
      test_tree_shrink_candidates;
    Alcotest.test_case "cq shrink candidates stay safe" `Quick
      test_query_shrink_safety;
    Alcotest.test_case "greedy minimisation reaches the floor" `Quick
      test_minimize_is_greedy_descent;
    Alcotest.test_case "oracle registry lookup" `Quick test_oracle_lookup;
    Alcotest.test_case "a discrepancy reports the shrunk case's message" `Quick
      test_message_is_the_shrunk_cases;
  ]
