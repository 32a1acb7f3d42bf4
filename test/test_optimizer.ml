(* Adaptive optimizer tests:

   - seeded estimates: the quadratic FO² arm prices itself out of the
     plausible set on non-trivial documents, label selectivity narrows
     label-driven arms;
   - convergence: with deterministic injected per-strategy latencies the
     optimizer converges to the argmin within the exploration budget and
     never regresses after convergence — and the whole routing sequence
     is seed-replayable;
   - pinned picks (the plan cache's persisted state) skip exploration;
   - the [invert] fault forces the worst arm (the attest bad-pick gate);
   - plan-cache pick persistence: picks ride entries, LRU eviction and
     TTL expiry drop them (re-explore on churn), per-entry hit counts
     accumulate alongside;
   - end-to-end: a serve run with --strategy auto semantics converges
     and persists picks; a warm fleet sharing the cache explores zero
     times; a pinned fixed strategy yields the same answers. *)

open Helpers
module Engine = Treequery.Engine

let prepare_xpath s = Engine.prepare (Engine.parse_xpath s)

(* a shape with all four XPath arms: bottom-up, yannakakis (conjunctive,
   acyclic), datalog-hornsat and FO² *)
let multi_arm = "//a[b and c]"

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
  let opt = Optimizer.create ~epsilon:0.0 ~seed:0 () in
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
   known; cost mirrors latency so persisted picks are deterministic too *)
let injected_latency = function
  | "datalog-hornsat" -> 0.001
  | "yannakakis" -> 0.003
  | "xpath-bottom-up" -> 0.005
  | _ -> 0.050

(* the optimizer learns latencies from its cost store: record the
   injected latency there first, as the serving layer does, then close
   the loop with the cost *)
let feed store opt (default : Engine.prepared) name =
  let l = injected_latency name in
  ignore
    (Telemetry.Cost_store.observe store ~fingerprint:default.Engine.fp
       ~strategy:name ~predicted:0.0 ~observed:(l *. 5e7) ~latency:l ~counters:[]);
  Optimizer.observe opt ~canon:default.Engine.canon ~strategy:name ~cost:(l *. 5e7)

let frozen_store () = Telemetry.Cost_store.create ~clock:(fun () -> 0.0) ()

let drive ?(rounds = 40) ~seed () =
  let tree = random_tree ~seed:11 ~n:300 () in
  let default = prepare_xpath multi_arm in
  let store = frozen_store () in
  let opt = Optimizer.create ~epsilon:0.0 ~min_trials:2 ~seed ~store () in
  let picks = ref [] and converged_at = ref None in
  for i = 1 to rounds do
    let d = Optimizer.decide opt tree default in
    let name = Engine.strategy_name d.Optimizer.d_strategy in
    picks := name :: !picks;
    match feed store opt default name with
    | Some _ when !converged_at = None -> converged_at := Some i
    | _ -> ()
  done;
  (List.rev !picks, !converged_at)

let test_converges_to_argmin_and_never_regresses () =
  let picks, converged_at = drive ~seed:1 () in
  let k =
    match converged_at with
    | Some k -> k
    | None -> Alcotest.fail "never converged"
  in
  (* the exploration budget: |plausible arms| * min_trials; FO² is
     implausible, leaving three arms at two trials each *)
  Alcotest.(check bool) "converged within budget" true (k <= 6);
  let after = List.filteri (fun i _ -> i >= k) picks in
  Alcotest.(check bool) "decisions exist after convergence" true (after <> []);
  List.iter
    (fun name ->
      Alcotest.(check string) "argmin after convergence, never regresses"
        "datalog-hornsat" name)
    after

let test_routing_is_seed_replayable () =
  let a, ka = drive ~seed:9 () in
  let b, kb = drive ~seed:9 () in
  Alcotest.(check bool) "same seed, same routing sequence" true (a = b);
  Alcotest.(check bool) "same convergence point" true (ka = kb);
  (* epsilon-greedy draws are part of the replayable state too *)
  let noisy seed =
    let tree = random_tree ~seed:11 ~n:300 () in
    let default = prepare_xpath multi_arm in
    let store = frozen_store () in
    let opt = Optimizer.create ~epsilon:0.5 ~min_trials:2 ~seed ~store () in
    List.init 12 (fun _ ->
        let d = Optimizer.decide opt tree default in
        let name = Engine.strategy_name d.Optimizer.d_strategy in
        ignore (feed store opt default name);
        name)
  in
  Alcotest.(check bool) "epsilon draws replay under the seed" true
    (noisy 4 = noisy 4)

let test_pinned_pick_skips_exploration () =
  let tree = random_tree ~seed:11 ~n:300 () in
  let default = prepare_xpath multi_arm in
  let opt = Optimizer.create ~epsilon:0.0 ~seed:0 () in
  let d = Optimizer.decide opt ~pinned:"datalog-hornsat" tree default in
  Alcotest.(check string) "pinned arm picked" "datalog-hornsat"
    (Engine.strategy_name d.Optimizer.d_strategy);
  Alcotest.(check bool) "reason is the cached pick" true
    (d.Optimizer.d_reason = Optimizer.Cached_pick);
  let s = Optimizer.stats opt in
  Alcotest.(check int) "no exploration" 0 s.Optimizer.explorations;
  Alcotest.(check int) "entry converged immediately" 1 s.Optimizer.converged

let test_invert_forces_worst_arm () =
  let tree = random_tree ~seed:11 ~n:300 () in
  let default = prepare_xpath multi_arm in
  let opt = Optimizer.create ~epsilon:0.0 ~invert:true ~seed:0 () in
  let d = Optimizer.decide opt tree default in
  Alcotest.(check string) "worst arm is the quadratic FO2 embedding"
    "xpath-fo2"
    (Engine.strategy_name d.Optimizer.d_strategy);
  Alcotest.(check bool) "reason says injected" true
    (d.Optimizer.d_reason = Optimizer.Injected_worst)

let test_create_validates () =
  let bad f = Alcotest.check_raises "invalid_arg" (Invalid_argument f) in
  bad "Optimizer.create: epsilon must be in [0, 1]" (fun () ->
      ignore (Optimizer.create ~epsilon:1.5 ()));
  bad "Optimizer.create: min_trials must be >= 1" (fun () ->
      ignore (Optimizer.create ~min_trials:0 ()))

(* ------------------------------------------------------------------ *)
(* plan-cache pick persistence *)

let test_cache_pick_rides_entry () =
  let cache = Serve.Plan_cache.create ~capacity:8 () in
  let q = Engine.parse_xpath multi_arm in
  let _, p = Serve.Plan_cache.find cache q in
  let canon = p.Engine.canon in
  Alcotest.(check bool) "no pick on a fresh entry" true
    (Serve.Plan_cache.pick cache ~canon = None);
  Serve.Plan_cache.set_pick cache ~canon ~strategy:"yannakakis" ~cost:42.0;
  (match Serve.Plan_cache.pick cache ~canon with
  | Some pk ->
    Alcotest.(check string) "strategy" "yannakakis" pk.Serve.Plan_cache.pick_strategy;
    Alcotest.(check (float 1e-9)) "cost" 42.0 pk.Serve.Plan_cache.pick_cost
  | None -> Alcotest.fail "pick not stored");
  (* hits accumulate on the same entry without disturbing the pick *)
  ignore (Serve.Plan_cache.find cache q);
  ignore (Serve.Plan_cache.find cache q);
  let e = List.hd (Serve.Plan_cache.entries cache) in
  Alcotest.(check int) "per-entry hits counted" 2 e.Serve.Plan_cache.entry_hits;
  Alcotest.(check bool) "pick survives hits" true
    (e.Serve.Plan_cache.entry_pick <> None)

let test_cache_eviction_drops_pick () =
  let cache = Serve.Plan_cache.create ~capacity:2 () in
  let q1 = Engine.parse_xpath "//a" in
  let _, p1 = Serve.Plan_cache.find cache q1 in
  Serve.Plan_cache.set_pick cache ~canon:p1.Engine.canon
    ~strategy:"datalog-hornsat" ~cost:1.0;
  (* fill past capacity: q1 is the LRU victim *)
  ignore (Serve.Plan_cache.find cache (Engine.parse_xpath "//b"));
  ignore (Serve.Plan_cache.find cache (Engine.parse_xpath "//c"));
  Alcotest.(check bool) "evicted entry has no pick" true
    (Serve.Plan_cache.pick cache ~canon:p1.Engine.canon = None);
  (* a re-planned shape starts cold: fresh entry, no pick — the
     serving layer re-explores *)
  let outcome, p1' = Serve.Plan_cache.find cache q1 in
  Alcotest.(check bool) "re-lookup is a miss" true (outcome = `Miss);
  Alcotest.(check bool) "fresh entry, no stored pick" true
    (Serve.Plan_cache.pick cache ~canon:p1'.Engine.canon = None)

let test_cache_ttl_resets_pick () =
  let now = ref 0.0 in
  let cache =
    Serve.Plan_cache.create ~capacity:8 ~ttl:10.0 ~clock:(fun () -> !now) ()
  in
  let q = Engine.parse_xpath multi_arm in
  let _, p = Serve.Plan_cache.find cache q in
  let canon = p.Engine.canon in
  Serve.Plan_cache.set_pick cache ~canon ~strategy:"yannakakis" ~cost:7.0;
  now := 5.0;
  Alcotest.(check bool) "pick live within ttl" true
    (Serve.Plan_cache.pick cache ~canon <> None);
  now := 11.0;
  Alcotest.(check bool) "ttl expiry resets the pick" true
    (Serve.Plan_cache.pick cache ~canon = None);
  (* set_pick on an expired entry is a no-op, not a resurrection *)
  Serve.Plan_cache.set_pick cache ~canon ~strategy:"yannakakis" ~cost:7.0;
  Alcotest.(check bool) "no write-through on expired entries" true
    (Serve.Plan_cache.pick cache ~canon = None)

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
  let opt = Optimizer.create ~epsilon:0.0 ~seed:0 ~store () in
  let cfg = Serve.Server.config ~cache ~telemetry:store ~optimizer:opt () in
  let stats = Serve.Server.run cfg tree shapes reqs in
  Alcotest.(check int) "all served" 120 stats.Serve.Server.served;
  let os = Optimizer.stats opt in
  Alcotest.(check bool) "every shape converged" true
    (os.Optimizer.entries > 0 && os.Optimizer.converged = os.Optimizer.entries);
  let with_picks =
    List.filter
      (fun (e : Serve.Plan_cache.entry_stats) ->
        e.Serve.Plan_cache.entry_pick <> None)
      (Serve.Plan_cache.entries cache)
  in
  Alcotest.(check int) "every cache entry carries the converged pick"
    (List.length (Serve.Plan_cache.entries cache))
    (List.length with_picks);
  (* the cost store counted the routing decisions *)
  let picks_total =
    List.fold_left
      (fun acc (s : Telemetry.Cost_store.summary) -> acc + s.Telemetry.Cost_store.picks)
      0
      (Telemetry.Cost_store.summaries store)
  in
  Alcotest.(check int) "one pick counter bump per request" 120 picks_total;
  (* warm fleet: a fresh optimizer sharing the cache trusts the stored
     picks and never explores *)
  let store2 = Telemetry.Cost_store.create () in
  let opt2 = Optimizer.create ~epsilon:0.0 ~seed:0 ~store:store2 () in
  let cfg2 =
    Serve.Server.config ~cache ~telemetry:store2 ~optimizer:opt2 ()
  in
  let _, reqs2 = serve_workload ~seed:7 ~count:60 in
  let stats2 = Serve.Server.run cfg2 tree shapes reqs2 in
  Alcotest.(check int) "warm run serves" 60 stats2.Serve.Server.served;
  Alcotest.(check int) "warm fleet skips exploration entirely" 0
    (Optimizer.stats opt2).Optimizer.explorations

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
    Alcotest.test_case "pinned pick skips exploration" `Quick
      test_pinned_pick_skips_exploration;
    Alcotest.test_case "invert forces the worst arm" `Quick
      test_invert_forces_worst_arm;
    Alcotest.test_case "create validates parameters" `Quick test_create_validates;
    Alcotest.test_case "plan-cache pick rides the entry" `Quick
      test_cache_pick_rides_entry;
    Alcotest.test_case "eviction drops the pick (re-explore)" `Quick
      test_cache_eviction_drops_pick;
    Alcotest.test_case "ttl expiry resets the pick" `Quick
      test_cache_ttl_resets_pick;
    Alcotest.test_case "server auto converges and persists picks" `Quick
      test_server_auto_converges_and_persists;
    Alcotest.test_case "forced strategy serves identical answers" `Quick
      test_server_forced_strategy_matches_default;
  ]
