(* Adaptive optimizer tests:

   - seeded estimates: the quadratic FO² arm prices itself out of the
     plausible set on non-trivial documents, label selectivity narrows
     label-driven arms;
   - convergence: with deterministic injected per-strategy latencies
     recorded in the cost store, the optimizer explores each plausible
     arm exactly twice, converges to the argmin and never regresses —
     and the whole routing sequence is replayable;
   - an entry with nothing to learn never explores: a store-less
     optimizer routes by the seeded argmin, and so does an entry with a
     single plausible arm;
   - the [invert] fault forces the worst arm (the attest bad-pick gate);
   - end-to-end: a serve run with --strategy auto semantics converges,
     and the converged entries route a second run without exploring; a
     pinned fixed strategy yields the same answers; the server refuses
     an optimizer whose store it does not record into; under a deadline
     every shape learns from arms admission lets run. *)

open Helpers
module Engine = Treequery.Engine

let prepare_xpath s = Engine.prepare (Engine.parse_xpath s)

(* a shape with all four XPath arms: bottom-up, yannakakis (conjunctive,
   acyclic), datalog-hornsat and FO².  It tests no label, so no arm's
   seed is discounted by selectivity and Horn-SAT (30·n·|Q|) stays within
   the plausible span of bottom-up (3·n·|Q|) *)
let multi_arm = "//*[* and following-sibling::*]"

(* ------------------------------------------------------------------ *)
(* seeding *)

let test_estimates_price_out_fo2 () =
  let tree = random_tree ~seed:3 ~n:2_000 () in
  let stats = Optimizer.Stats.of_tree tree in
  let q = Engine.parse_xpath multi_arm in
  let by_strategy =
    List.map
      (fun s ->
        let p = Engine.prepare_with s q in
        (Engine.strategy_name s, Optimizer.estimate stats p))
      (Engine.strategies q)
  in
  let fo2 = List.assoc "xpath-fo2" by_strategy in
  List.iter
    (fun (name, est) ->
      if name <> "xpath-fo2" then
        Alcotest.(check bool)
          (Printf.sprintf "fo2 dwarfs %s" name)
          true
          (fo2 > 100.0 *. est))
    by_strategy;
  (* and the decision engine marks it implausible: one decide, then the
     report shows the fo2 arm as not explorable *)
  let opt = Optimizer.create () in
  ignore (Optimizer.decide opt tree (Engine.prepare q));
  let r = List.hd (Optimizer.report opt) in
  let fo2_arm =
    List.find
      (fun (a : Optimizer.arm_report) -> a.r_strategy = "xpath-fo2")
      r.Optimizer.r_arms
  in
  Alcotest.(check bool) "fo2 not explorable" false fo2_arm.Optimizer.r_explorable

let test_selectivity_narrows () =
  let tree = random_tree ~seed:3 ~n:1_000 () in
  let stats = Optimizer.Stats.of_tree tree in
  let common = Engine.parse_xpath "//a" in
  let absent = Engine.parse_xpath "//zz" in
  let s_common = Optimizer.selectivity stats common in
  let s_absent = Optimizer.selectivity stats absent in
  Alcotest.(check bool) "common label is likelier" true (s_common > s_absent);
  Alcotest.(check bool) "absent label clamped above zero" true (s_absent > 0.0)

(* ------------------------------------------------------------------ *)
(* convergence *)

(* deterministic injected latencies: hornsat fastest, so the argmin is
   known *)
let injected_latency = function
  | "datalog-hornsat" -> 0.001
  | "yannakakis" -> 0.003
  | "xpath-bottom-up" -> 0.005
  | _ -> 0.050

(* the optimizer learns only from its cost store: record the injected
   latency there, as the serving layer does *)
let feed store (default : Engine.prepared) name =
  let l = injected_latency name in
  ignore
    (Telemetry.Cost_store.observe store ~fingerprint:default.Engine.fp
       ~strategy:name ~predicted:0.0 ~observed:(l *. 5e7) ~latency:l ~counters:[])

let frozen_store () = Telemetry.Cost_store.create ~clock:(fun () -> 0.0) ()

(* the routing sequence as (strategy, reason) pairs, and the decision
   after whose observation the entry first showed converged *)
let drive ?(rounds = 40) () =
  let tree = random_tree ~seed:11 ~n:300 () in
  let default = prepare_xpath multi_arm in
  let store = frozen_store () in
  let opt = Optimizer.create ~store () in
  let picks = ref [] and converged_at = ref None in
  for i = 1 to rounds do
    let d = Optimizer.decide opt tree default in
    let name = Engine.strategy_name d.Optimizer.d_strategy in
    picks := (name, d.Optimizer.d_reason) :: !picks;
    feed store default name;
    if !converged_at = None && (Optimizer.stats opt).Optimizer.converged = 1
    then converged_at := Some i
  done;
  (List.rev !picks, !converged_at)

let test_converges_to_argmin_and_never_regresses () =
  let picks, converged_at = drive () in
  let k =
    match converged_at with
    | Some k -> k
    | None -> Alcotest.fail "never converged"
  in
  (* FO² is implausible, leaving three arms, each explored exactly
     twice; the entry converges with the sixth observation *)
  let exploring =
    List.filter_map
      (fun (name, reason) ->
        if reason = Optimizer.Exploring then Some name else None)
      picks
  in
  Alcotest.(check (list string)) "two exploring decisions per plausible arm"
    [ "datalog-hornsat"; "datalog-hornsat"; "xpath-bottom-up";
      "xpath-bottom-up"; "yannakakis"; "yannakakis" ]
    (List.sort compare exploring);
  Alcotest.(check int) "converged with the last needed observation" 6 k;
  let after = List.filteri (fun i _ -> i >= k) picks in
  Alcotest.(check bool) "decisions exist after convergence" true (after <> []);
  List.iter
    (fun (name, reason) ->
      Alcotest.(check string) "argmin after convergence, never regresses"
        "datalog-hornsat" name;
      Alcotest.(check bool) "reason is converged" true
        (reason = Optimizer.Converged))
    after

let test_routing_is_seed_replayable () =
  let a, ka = drive () in
  let b, kb = drive () in
  Alcotest.(check bool) "same inputs, same routing sequence" true (a = b);
  Alcotest.(check bool) "same convergence point" true (ka = kb)

let test_invert_forces_worst_arm () =
  let tree = random_tree ~seed:11 ~n:300 () in
  let default = prepare_xpath multi_arm in
  let opt = Optimizer.create ~invert:true () in
  let d = Optimizer.decide opt tree default in
  Alcotest.(check string) "worst arm is the quadratic FO2 embedding"
    "xpath-fo2"
    (Engine.strategy_name d.Optimizer.d_strategy);
  Alcotest.(check bool) "reason says injected" true
    (d.Optimizer.d_reason = Optimizer.Injected_worst)

(* ------------------------------------------------------------------ *)
(* end-to-end through the server *)

let serve_workload ~seed ~count =
  let rng = Random.State.make [| seed; 0xda7a |] in
  let shapes = Serve.Workload.shapes ~rng ~count:4 in
  let reqs =
    Serve.Workload.requests ~rng ~shapes:(Array.length shapes) ~count
      Serve.Workload.Closed_loop
  in
  (shapes, reqs)

let test_server_auto_converges_and_persists () =
  let tree = random_tree ~seed:7 ~n:400 () in
  let shapes, reqs = serve_workload ~seed:7 ~count:120 in
  let cache = Serve.Plan_cache.create () in
  let store = Telemetry.Cost_store.create () in
  let opt = Optimizer.create ~store () in
  let cfg = Serve.Server.config ~cache ~telemetry:store ~optimizer:opt () in
  let stats = Serve.Server.run cfg tree shapes reqs in
  Alcotest.(check int) "all served" 120 stats.Serve.Server.served;
  let os = Optimizer.stats opt in
  Alcotest.(check bool) "every shape converged" true
    (os.Optimizer.entries > 0 && os.Optimizer.converged = os.Optimizer.entries);
  (* the cost store counted the routing decisions *)
  let picks_total =
    List.fold_left
      (fun acc (s : Telemetry.Cost_store.summary) -> acc + s.Telemetry.Cost_store.picks)
      0
      (Telemetry.Cost_store.summaries store)
  in
  Alcotest.(check int) "one pick counter bump per request" 120 picks_total;
  (* the converged picks persist in the optimizer's entries: a second
     run routes every request without exploring *)
  let _, reqs2 = serve_workload ~seed:7 ~count:60 in
  let stats2 = Serve.Server.run cfg tree shapes reqs2 in
  Alcotest.(check int) "second run serves" 60 stats2.Serve.Server.served;
  Alcotest.(check int) "second run explores nothing" os.Optimizer.explorations
    (Optimizer.stats opt).Optimizer.explorations

let test_server_forced_strategy_matches_default () =
  let tree = random_tree ~seed:13 ~n:300 () in
  let shapes, reqs = serve_workload ~seed:13 ~count:60 in
  let run cfg =
    let s = Serve.Server.run cfg tree shapes reqs in
    (s.Serve.Server.served, s.Serve.Server.result_nodes)
  in
  let base = run (Serve.Server.config ()) in
  let forced =
    run (Serve.Server.config ~force_strategy:Engine.Datalog_hornsat ())
  in
  Alcotest.(check (pair int int)) "pinned strategy, same answers" base forced

(* under a deadline, an arm that admission rejects never runs, so it can
   never be observed: exploring it would re-pick it (and reject the
   request) forever.  On the XMark workload of the CLI's
   [serve --xmark 64 --requests 600 --shapes 30 --strategy auto
   --deadline-ms 5], every shape must learn from an arm it can run *)
let test_auto_under_deadline_explores_admitted_arms () =
  let seed = 42 and deadline = 0.005 in
  let tree = Treekit.Generator.xmark ~seed ~scale:64 () in
  let rng = Random.State.make [| seed; 0xda7a |] in
  let shapes = Serve.Workload.shapes ~rng ~count:30 in
  let reqs =
    Serve.Workload.requests ~rng ~shapes:(Array.length shapes) ~count:600
      Serve.Workload.Closed_loop
  in
  let store = Telemetry.Cost_store.create () in
  let opt = Optimizer.create ~store () in
  let cfg =
    Serve.Server.config ~cache:(Serve.Plan_cache.create ~capacity:128 ())
      ~deadline ~telemetry:store ~optimizer:opt ()
  in
  let stats = Serve.Server.run cfg tree shapes reqs in
  Alcotest.(check int) "every request served or rejected" 600
    (stats.Serve.Server.served + stats.Serve.Server.rejected);
  (* fingerprint -> the strategies whose bound fits the budget *)
  let admitted = Hashtbl.create 32 in
  Array.iter
    (fun (s : Serve.Workload.shape) ->
      let default = Engine.prepare s.Serve.Workload.query in
      List.iter
        (fun st ->
          let p = Engine.prepare_with st default.Engine.source in
          if
            Engine.price p ~n:(float_of_int (Treekit.Tree.size tree))
            <= deadline *. Engine.ops_per_second
          then Hashtbl.add admitted default.Engine.fp (Engine.strategy_name st))
        (Engine.strategies default.Engine.source))
    shapes;
  List.iter
    (fun (r : Optimizer.entry_report) ->
      let plausible =
        List.filter (fun (a : Optimizer.arm_report) -> a.Optimizer.r_explorable)
          r.Optimizer.r_arms
      in
      if
        List.exists
          (fun (a : Optimizer.arm_report) ->
            List.mem a.Optimizer.r_strategy
              (Hashtbl.find_all admitted r.Optimizer.r_fingerprint))
          plausible
      then
        Alcotest.(check bool)
          (r.Optimizer.r_fingerprint ^ ": a plausible arm was observed")
          true
          (List.exists (fun (a : Optimizer.arm_report) -> a.Optimizer.r_trials > 0) plausible))
    (Optimizer.report opt);
  let os = Optimizer.stats opt in
  Alcotest.(check int) "every shape converged" os.Optimizer.entries
    os.Optimizer.converged

(* ------------------------------------------------------------------ *)
(* nothing to learn *)

let test_storeless_routes_by_seeded_argmin () =
  let tree = random_tree ~seed:11 ~n:300 () in
  let default = prepare_xpath multi_arm in
  let opt = Optimizer.create () in
  for _ = 1 to 5 do
    let d = Optimizer.decide opt tree default in
    Alcotest.(check (float 0.0)) "the least estimate"
      (List.fold_left (fun acc (_, e) -> Float.min acc e) infinity
         d.Optimizer.d_candidates)
      d.Optimizer.d_estimate;
    Alcotest.(check bool) "reason is seeded" true
      (d.Optimizer.d_reason = Optimizer.Seeded)
  done;
  let s = Optimizer.stats opt in
  Alcotest.(check int) "converged at creation" 1 s.Optimizer.converged;
  Alcotest.(check int) "never explores" 0 s.Optimizer.explorations

(* on a label-driven shape bottom-up's seed is discounted by the label's
   selectivity (about 1/3 here) and Horn-SAT's is not: Horn-SAT, and
   FO² with it, fall outside the plausible span *)
let test_single_plausible_arm_never_explores () =
  let tree = random_tree ~seed:11 ~n:300 () in
  let default = prepare_xpath "//a[not(b)]" in
  let store = frozen_store () in
  let opt = Optimizer.create ~store () in
  for _ = 1 to 4 do
    let d = Optimizer.decide opt tree default in
    Alcotest.(check bool) "not exploring" true
      (d.Optimizer.d_reason <> Optimizer.Exploring);
    ignore
      (Telemetry.Cost_store.observe store ~fingerprint:default.Engine.fp
         ~strategy:(Engine.strategy_name d.Optimizer.d_strategy) ~predicted:0.0
         ~observed:1.0 ~latency:0.001 ~counters:[])
  done;
  let r = List.hd (Optimizer.report opt) in
  Alcotest.(check bool) "several arms" true (List.length r.Optimizer.r_arms > 1);
  Alcotest.(check int) "one plausible arm" 1
    (List.length
       (List.filter (fun (a : Optimizer.arm_report) -> a.Optimizer.r_explorable)
          r.Optimizer.r_arms));
  Alcotest.(check int) "no exploring decision" 0
    (Optimizer.stats opt).Optimizer.explorations

let test_server_rejects_foreign_store () =
  let store = Telemetry.Cost_store.create () in
  let optimizer = Optimizer.create ~store () in
  let rejects name f =
    Alcotest.check_raises name
      (Invalid_argument
         "Server.config: the optimizer's store must be the telemetry store")
      (fun () -> ignore (f ()))
  in
  rejects "no telemetry" (fun () -> Serve.Server.config ~optimizer ());
  rejects "another store" (fun () ->
      Serve.Server.config ~telemetry:(Telemetry.Cost_store.create ()) ~optimizer
        ());
  ignore (Serve.Server.config ~telemetry:store ~optimizer ());
  ignore (Serve.Server.config ~optimizer:(Optimizer.create ()) ())

let suite =
  [
    Alcotest.test_case "estimates price out the FO2 arm" `Quick
      test_estimates_price_out_fo2;
    Alcotest.test_case "label selectivity narrows estimates" `Quick
      test_selectivity_narrows;
    Alcotest.test_case "converges to argmin, never regresses" `Quick
      test_converges_to_argmin_and_never_regresses;
    Alcotest.test_case "routing is seed-replayable" `Quick
      test_routing_is_seed_replayable;
    Alcotest.test_case "invert forces the worst arm" `Quick
      test_invert_forces_worst_arm;
    Alcotest.test_case "server auto converges and persists picks" `Quick
      test_server_auto_converges_and_persists;
    Alcotest.test_case "forced strategy serves identical answers" `Quick
      test_server_forced_strategy_matches_default;
    Alcotest.test_case "store-less optimizer routes by the seeded argmin"
      `Quick test_storeless_routes_by_seeded_argmin;
    Alcotest.test_case "single plausible arm never explores" `Quick
      test_single_plausible_arm_never_explores;
    Alcotest.test_case "server rejects an optimizer with a foreign store"
      `Quick test_server_rejects_foreign_store;
    Alcotest.test_case "auto under a deadline explores only admitted arms"
      `Quick test_auto_under_deadline_explores_admitted_arms;
  ]
