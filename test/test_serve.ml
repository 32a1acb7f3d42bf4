(* The serving layer:
   - canonical fingerprints: alpha-equivalent CQs and
     parenthesization-variant XPath collapse, structurally distinct
     queries do not (property over generators);
   - plan cache: LRU eviction order, TTL expiry under a fake clock;
   - batch executor: answers (with and without the stream prefilter)
     agree with one-at-a-time engine evaluation, duplicates share;
   - server: closed-loop stats, admission-control rejection, open-loop
     shedding under a fake clock;
   - the cached-vs-cold differential oracle over >= 1k cases. *)

open Treekit
open Helpers
module E = Treequery.Engine

(* ------------------------------------------------------------------ *)
(* fingerprints *)

let fp_x s = E.fingerprint (E.parse_xpath s)
let fp_cq s = E.fingerprint (E.parse_cq s)

let test_fingerprint_variants () =
  (* parenthesization / association variants *)
  Alcotest.(check string)
    "seq association" (fp_x "//a/b/c")
    (fp_x "//a/(b/c)");
  Alcotest.(check string)
    "union association"
    (fp_x "(/a | /b) | /c")
    (fp_x "/a | (/b | /c)");
  Alcotest.(check string)
    "qualifier and association"
    (fp_x "//a[b and (c and d)]")
    (fp_x "//a[(b and c) and d]");
  (* folding top-level qualifier ands into the qualifier list *)
  Alcotest.(check string)
    "and folds into qualifier list"
    (fp_x "//a[b and c]")
    (fp_x "//a[b][c]");
  (* alpha-equivalent CQs *)
  Alcotest.(check string)
    "cq alpha rename"
    (fp_cq {| q(X) :- lab(X, "a"), child(X, Y), lab(Y, "b"). |})
    (fp_cq {| q(U) :- lab(U, "a"), child(U, V), lab(V, "b"). |});
  (* distinct structures stay distinct *)
  Alcotest.(check bool)
    "child /= descendant" false
    (fp_cq {| q(X) :- lab(X, "a"), child(X, Y). |}
    = fp_cq {| q(X) :- lab(X, "a"), descendant(X, Y). |});
  Alcotest.(check bool)
    "different label" false
    (fp_x "//a" = fp_x "//b");
  (* languages never collide: the tag is part of the name *)
  Alcotest.(check bool)
    "language tag differs" false
    (String.sub (fp_x "//a") 0 6 = String.sub (fp_cq {| q(X) :- lab(X, "a"). |}) 0 6)

let test_explain_plan_cache () =
  let q = E.parse_xpath "//a[b]" in
  let hit = E.explain ~plan_cache:`Hit q in
  let miss = E.explain ~plan_cache:`Miss q in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "explain shows fingerprint" true
    (contains hit ("fingerprint: " ^ E.fingerprint q));
  Alcotest.(check bool) "explain shows hit" true (contains hit "plan-cache:  hit");
  Alcotest.(check bool) "explain shows miss" true (contains miss "plan-cache:  miss");
  Alcotest.(check bool) "no plan-cache line by default" false
    (contains (E.explain q) "plan-cache")

(* property: over random CQs, a variable permutation never changes the
   fingerprint, and fingerprint equality coincides with canonical-form
   equality (so distinct structures hash apart) *)
let cq_gen =
  QCheck2.Gen.(
    let* qseed = int_range 0 100_000 in
    let* nvars = int_range 1 4 in
    let* natoms = int_range 1 4 in
    return
      (Cqtree.Generator.arbitrary ~seed:qseed ~nvars ~natoms
         ~axes:[ Axis.Child; Axis.Descendant; Axis.Following; Axis.Next_sibling ]
         ~labels:Generator.labels_abc ()))

let prop_alpha_rename =
  qtest ~count:200 "fingerprint invariant under alpha-renaming" cq_gen (fun q ->
      let renamed = Cqtree.Query.rename (fun v -> "fresh_" ^ v) q in
      E.fingerprint (E.Cq_query q) = E.fingerprint (E.Cq_query renamed))

let prop_fp_iff_canonical =
  qtest ~count:200 "fingerprint equality = canonical equality"
    QCheck2.Gen.(pair cq_gen cq_gen)
    (fun (a, b) ->
      let qa = E.Cq_query a and qb = E.Cq_query b in
      (E.fingerprint qa = E.fingerprint qb) = (E.canonical qa = E.canonical qb))

(* association variants built directly on the AST (the parser can only
   produce some of them) *)
let prop_xpath_reassociation =
  let path_gen =
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let cfg = { Check.Gen.default with Check.Gen.max_nodes = 8 } in
      let rng = Random.State.make [| seed |] in
      match Check.Gen.xpath ~max_depth:2 cfg rng with
      | Check.Case.Xpath p -> return p
      | _ -> assert false)
  in
  qtest ~count:200 "Seq/Union re-association is canonical"
    QCheck2.Gen.(triple path_gen path_gen path_gen)
    (fun (p1, p2, p3) ->
      let open Xpath.Ast in
      E.fingerprint (E.Xpath_query (Seq (Seq (p1, p2), p3)))
      = E.fingerprint (E.Xpath_query (Seq (p1, Seq (p2, p3))))
      && E.fingerprint (E.Xpath_query (Union (Union (p1, p2), p3)))
         = E.fingerprint (E.Xpath_query (Union (p1, Union (p2, p3)))))

(* ------------------------------------------------------------------ *)
(* plan cache *)

let test_lru_eviction () =
  let c = Serve.Plan_cache.create ~capacity:2 () in
  let q name = E.parse_xpath ("//" ^ name) in
  let outcome (o, _) = o in
  Alcotest.(check bool) "a misses" true (outcome (Serve.Plan_cache.find c (q "a")) = `Miss);
  Alcotest.(check bool) "b misses" true (outcome (Serve.Plan_cache.find c (q "b")) = `Miss);
  Alcotest.(check bool) "a hits" true (outcome (Serve.Plan_cache.find c (q "a")) = `Hit);
  (* b is now least recently used; c's insertion evicts it *)
  Alcotest.(check bool) "c misses" true (outcome (Serve.Plan_cache.find c (q "c")) = `Miss);
  Alcotest.(check bool) "a survived" true (outcome (Serve.Plan_cache.find c (q "a")) = `Hit);
  Alcotest.(check bool) "b was evicted" true (outcome (Serve.Plan_cache.find c (q "b")) = `Miss);
  let s = Serve.Plan_cache.stats c in
  Alcotest.(check int) "evictions" 2 s.Serve.Plan_cache.evictions;
  Alcotest.(check int) "size" 2 s.Serve.Plan_cache.size;
  (* variants share an entry *)
  Alcotest.(check bool) "variant hits" true
    (outcome (Serve.Plan_cache.find c (E.parse_xpath "(//b)")) = `Hit)

let test_ttl_expiry () =
  let now = ref 0.0 in
  let c = Serve.Plan_cache.create ~capacity:8 ~ttl:10.0 ~clock:(fun () -> !now) () in
  let q = E.parse_xpath "//a[b]" in
  let outcome (o, _) = o in
  Alcotest.(check bool) "miss" true (outcome (Serve.Plan_cache.find c q) = `Miss);
  now := 5.0;
  Alcotest.(check bool) "fresh hit" true (outcome (Serve.Plan_cache.find c q) = `Hit);
  now := 16.0;
  Alcotest.(check bool) "expired" true (outcome (Serve.Plan_cache.find c q) = `Miss);
  Alcotest.(check int) "one expiration" 1
    (Serve.Plan_cache.stats c).Serve.Plan_cache.expirations;
  now := 17.0;
  Alcotest.(check bool) "re-cached" true (outcome (Serve.Plan_cache.find c q) = `Hit)

let test_cache_disabled () =
  let c = Serve.Plan_cache.create ~capacity:0 () in
  let q = E.parse_xpath "//a" in
  let outcome (o, _) = o in
  Alcotest.(check bool) "miss" true (outcome (Serve.Plan_cache.find c q) = `Miss);
  Alcotest.(check bool) "still miss" true (outcome (Serve.Plan_cache.find c q) = `Miss);
  Alcotest.(check int) "nothing stored" 0 (Serve.Plan_cache.size c)

(* ------------------------------------------------------------------ *)
(* batch executor *)

let batch_pool =
  [
    "//a";
    "//a/b";
    "//a[b]";
    "//a[b//c]";
    "//b[a and c]";
    "/a/b | //c";
    "//a[not(b)]";
    "//c/following-sibling::*";
  ]

let prop_batch_equals_engine =
  qtest ~count:60 "batch answers = one-at-a-time answers"
    QCheck2.Gen.(pair (tree_gen ()) (int_range 0 1))
    (fun (t, prefilter) ->
      (* duplicates included: index i uses pool.(i mod len) *)
      let queries =
        Array.init 12 (fun i ->
            E.parse_xpath (List.nth batch_pool (i mod List.length batch_pool)))
      in
      let r =
        Serve.Batch.run ~stream_prefilter:(prefilter = 1) t queries
      in
      Array.for_all2
        (fun ans q -> Nodeset.equal ans (E.eval q t))
        r.Serve.Batch.answers queries
      && r.Serve.Batch.distinct = List.length batch_pool)

let test_batch_dedup_shares () =
  let t = fig2_tree () in
  let queries = Array.make 5 (E.parse_xpath "//a[b]") in
  let r = Serve.Batch.run t queries in
  Alcotest.(check int) "one distinct plan" 1 r.Serve.Batch.distinct;
  (* all five answers alias the same evaluation *)
  Array.iter
    (fun a -> Alcotest.(check bool) "shared" true (a == r.Serve.Batch.answers.(0)))
    r.Serve.Batch.answers

(* ------------------------------------------------------------------ *)
(* server *)

let mini_shapes sources =
  Array.of_list
    (List.map
       (fun s -> { Serve.Workload.source = s; query = E.parse_xpath s })
       sources)

let closed_requests n nshapes =
  List.init n (fun i ->
      { Serve.Workload.id = i; shape = i mod nshapes; arrival = None })

let test_server_closed_loop () =
  let t = Generator.xmark ~seed:3 ~scale:8 () in
  let shapes = mini_shapes [ "//mail[date]"; "//item"; "//person/name" ] in
  let cache = Serve.Plan_cache.create () in
  let cfg = Serve.Server.config ~cache ~concurrency:10 ~share:true () in
  let stats = Serve.Server.run cfg t shapes (closed_requests 90 3) in
  Alcotest.(check int) "served" 90 stats.Serve.Server.served;
  Alcotest.(check int) "no rejects" 0 stats.Serve.Server.rejected;
  Alcotest.(check int) "no errors" 0 stats.Serve.Server.errors;
  Alcotest.(check int) "latency samples" 90 stats.Serve.Server.latency.Obs.count;
  let cs = Option.get stats.Serve.Server.cache in
  Alcotest.(check int) "every request hit the cache" 90
    (cs.Serve.Plan_cache.hits + cs.Serve.Plan_cache.misses);
  Alcotest.(check int) "one miss per shape" 3 cs.Serve.Plan_cache.misses;
  (* answers are correct: result_nodes matches independent evaluation *)
  let expect =
    30
    * (Array.fold_left
         (fun a (s : Serve.Workload.shape) ->
           a + Nodeset.cardinal (E.eval s.query t))
         0 shapes)
  in
  Alcotest.(check int) "result nodes" expect stats.Serve.Server.result_nodes

let test_admission_rejects_over_bound () =
  let t = fig2_tree () in
  let shapes = mini_shapes [ "//a[b]" ] in
  (* a deadline so tight no strategy's bound fits *)
  let cfg = Serve.Server.config ~deadline:1e-9 () in
  let stats = Serve.Server.run cfg t shapes (closed_requests 20 1) in
  Alcotest.(check int) "all rejected" 20 stats.Serve.Server.rejected;
  Alcotest.(check int) "none served" 0 stats.Serve.Server.served;
  Alcotest.(check string) "reason text" "degraded: naive bound exceeded"
    Serve.Server.reject_reason;
  (* the same workload with an affordable budget is served in full *)
  let cfg = Serve.Server.config ~deadline:1.0 () in
  let stats = Serve.Server.run cfg t shapes (closed_requests 20 1) in
  Alcotest.(check int) "served with budget" 20 stats.Serve.Server.served

let test_open_loop_sheds () =
  (* fake clock: one second per reading, so every batch "takes" seconds
     while open-loop arrivals come at 100 req/s with a 0.5 s deadline —
     the queue falls behind and late requests are shed before admission *)
  let now = ref 0.0 in
  let clock () =
    now := !now +. 1.0;
    !now
  in
  let t = fig2_tree () in
  let shapes = mini_shapes [ "//a" ] in
  let reqs =
    List.init 40 (fun i ->
        { Serve.Workload.id = i; shape = 0; arrival = Some (float_of_int i /. 100.0) })
  in
  let cfg = Serve.Server.config ~deadline:0.5 ~clock () in
  let stats = Serve.Server.run cfg t shapes reqs in
  Alcotest.(check int) "accounted" 40
    (stats.Serve.Server.served + stats.Serve.Server.shed);
  Alcotest.(check bool) "sheds under overload" true (stats.Serve.Server.shed > 0);
  Alcotest.(check bool) "still serves some" true (stats.Serve.Server.served > 0)

let test_workload_generator () =
  let rng = Random.State.make [| 5; 0xda7a |] in
  let shapes = Serve.Workload.shapes ~rng ~count:50 in
  Alcotest.(check int) "fifty shapes" 50 (Array.length shapes);
  let canons =
    Array.to_list (Array.map (fun (s : Serve.Workload.shape) -> E.canonical s.query) shapes)
  in
  Alcotest.(check int) "pairwise distinct canonicals" 50
    (List.length (List.sort_uniq compare canons));
  (* same seed, same workload *)
  let rng' = Random.State.make [| 5; 0xda7a |] in
  let shapes' = Serve.Workload.shapes ~rng:rng' ~count:50 in
  Alcotest.(check bool) "replayable" true
    (Array.for_all2
       (fun (a : Serve.Workload.shape) (b : Serve.Workload.shape) ->
         a.source = b.source)
       shapes shapes');
  (match Serve.Workload.kind_of_string "open:250" with
  | Ok (Serve.Workload.Open_loop { rate }) ->
    Alcotest.(check (float 1e-9)) "rate" 250.0 rate
  | _ -> Alcotest.fail "open:250 should parse");
  (match Serve.Workload.kind_of_string "closed" with
  | Ok Serve.Workload.Closed_loop -> ()
  | _ -> Alcotest.fail "closed should parse");
  (match Serve.Workload.kind_of_string "open:-3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative rate must be rejected")

(* ------------------------------------------------------------------ *)
(* scoped per-request profiles *)

let with_clean_obs f =
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let test_per_request_profiles () =
  with_clean_obs @@ fun () ->
  let t = Generator.xmark ~seed:3 ~scale:8 () in
  let shapes = mini_shapes [ "//mail[date]"; "//item"; "//person/name" ] in
  let cfg = Serve.Server.config ~concurrency:4 ~share:false () in
  let stats =
    Obs.with_enabled true (fun () ->
        Serve.Server.run cfg t shapes (closed_requests 30 3))
  in
  let r = Obs.Report.capture () in
  let profs = r.Obs.Report.profiles in
  Alcotest.(check int) "one profile per served request"
    stats.Serve.Server.served (List.length profs);
  List.iteri
    (fun i (p : Obs.profile) ->
      Alcotest.(check string) "labels follow request ids"
        (Printf.sprintf "request-%d" i)
        p.Obs.profile_label;
      (match List.assoc_opt "fingerprint" p.Obs.profile_attrs with
      | Some (Obs.Str fp) ->
        Alcotest.(check string) "fingerprint is the request's own shape"
          (E.fingerprint shapes.(i mod 3).Serve.Workload.query)
          fp
      | _ -> Alcotest.fail "profile missing fingerprint attr");
      Alcotest.(check bool) "profile saw work" true
        (List.exists (fun (_, v) -> v > 0) p.Obs.profile_counters))
    profs;
  (* interleaved requests each get exactly their own counters: all the
     requests of one shape did identical work, and distinct shapes did
     distinguishable work — impossible if deltas leaked across requests *)
  let by_shape = Hashtbl.create 4 in
  List.iter
    (fun (p : Obs.profile) ->
      match List.assoc_opt "fingerprint" p.Obs.profile_attrs with
      | Some (Obs.Str fp) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_shape fp) in
        Hashtbl.replace by_shape fp (p.Obs.profile_counters :: prev)
      | _ -> ())
    profs;
  Alcotest.(check int) "three shapes profiled" 3 (Hashtbl.length by_shape);
  Hashtbl.iter
    (fun fp runs ->
      List.iter
        (fun counters ->
          Alcotest.(check bool)
            (Printf.sprintf "all %s requests did identical work" fp)
            true
            (counters = List.hd runs))
        runs)
    by_shape;
  let distinct =
    Hashtbl.fold (fun _ runs acc -> List.hd runs :: acc) by_shape []
  in
  Alcotest.(check int) "shapes do distinguishable work" 3
    (List.length (List.sort_uniq compare distinct));
  (* profile sums never exceed the global snapshot totals *)
  let sums = Hashtbl.create 16 in
  List.iter
    (fun (p : Obs.profile) ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace sums k
            (v + Option.value ~default:0 (Hashtbl.find_opt sums k)))
        p.Obs.profile_counters)
    profs;
  Hashtbl.iter
    (fun k v ->
      let glob = Option.value ~default:0 (List.assoc_opt k r.Obs.Report.counters) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: profiled %d <= global %d" k v glob)
        true (v <= glob))
    sums;
  (* p90 is reported on both the text and the JSON path *)
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "p90 in the text report" true
    (contains (Serve.Server.to_text stats) "p90");
  Alcotest.(check bool) "p90_ms in the JSON report" true
    (contains (Obs.Report.to_json r) "p90_ms");
  Alcotest.(check bool) "serve latency histogram captured" true
    (List.mem_assoc "serve_latency" r.Obs.Report.histograms)

let test_share_mode_profiles_per_rep () =
  with_clean_obs @@ fun () ->
  let t = fig2_tree () in
  let shapes = mini_shapes [ "//a"; "//a[b]" ] in
  let cfg = Serve.Server.config ~concurrency:10 ~share:true () in
  ignore
    (Obs.with_enabled true (fun () ->
         Serve.Server.run cfg t shapes (closed_requests 20 2)));
  let r = Obs.Report.capture () in
  (* share mode evaluates each distinct plan once per batch: profiles are
     per-rep, so their sums stay within the global totals even though 20
     requests were answered *)
  Alcotest.(check bool) "some rep profiles recorded" true
    (r.Obs.Report.profiles <> []);
  List.iter
    (fun (p : Obs.profile) ->
      Alcotest.(check bool) "rep labels" true
        (String.length p.Obs.profile_label >= 4
        && String.sub p.Obs.profile_label 0 4 = "rep-");
      match List.assoc_opt "aliased" p.Obs.profile_attrs with
      | Some (Obs.Int _) -> ()
      | _ -> Alcotest.fail "rep profile missing aliased attr")
    r.Obs.Report.profiles;
  let sums = Hashtbl.create 16 in
  List.iter
    (fun (p : Obs.profile) ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace sums k
            (v + Option.value ~default:0 (Hashtbl.find_opt sums k)))
        p.Obs.profile_counters)
    r.Obs.Report.profiles;
  Hashtbl.iter
    (fun k v ->
      let glob = Option.value ~default:0 (List.assoc_opt k r.Obs.Report.counters) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: rep profiles %d <= global %d" k v glob)
        true (v <= glob))
    sums

let test_degrade_logs_fingerprint () =
  let t = fig2_tree () in
  let shapes = mini_shapes [ "//a[b]" ] in
  let cfg = Serve.Server.config ~deadline:1e-9 () in
  let stats = Serve.Server.run cfg t shapes (closed_requests 5 1) in
  Alcotest.(check int) "every rejection logs the priced plan" 5
    (List.length stats.Serve.Server.degraded);
  List.iter
    (fun (fp, bound) ->
      Alcotest.(check string) "fingerprint of the degraded plan"
        (E.fingerprint (E.parse_xpath "//a[b]"))
        fp;
      Alcotest.(check bool) "priced bound is positive" true (bound > 0.0))
    stats.Serve.Server.degraded

(* ------------------------------------------------------------------ *)
(* domain pool *)

let test_pool_basics () =
  let pool = Serve.Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Serve.Pool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "size" 3 (Serve.Pool.size pool);
  let results =
    Serve.Pool.run pool (Array.init 20 (fun i () -> i * i))
  in
  Alcotest.(check (array int)) "results in submission order"
    (Array.init 20 (fun i -> i * i))
    results;
  (* back-to-back jobs reuse the same workers *)
  let again = Serve.Pool.run pool (Array.init 5 (fun i () -> -i)) in
  Alcotest.(check (array int)) "second job" [| 0; -1; -2; -3; -4 |] again

let test_pool_exception_drains () =
  let pool = Serve.Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Serve.Pool.shutdown pool) @@ fun () ->
  let ran = Array.make 8 false in
  (match
     Serve.Pool.run pool
       (Array.init 8 (fun i () ->
            ran.(i) <- true;
            if i = 3 then failwith "task-3"))
   with
  | _ -> Alcotest.fail "expected the task exception to re-raise"
  | exception Failure m -> Alcotest.(check string) "first exception" "task-3" m);
  Alcotest.(check bool) "every task still ran" true (Array.for_all Fun.id ran);
  (* the pool survives a failed job *)
  Alcotest.(check (array int)) "usable afterwards" [| 7 |]
    (Serve.Pool.run pool [| (fun () -> 7) |])

let test_pool_size_one_and_shutdown () =
  let pool = Serve.Pool.create () in
  Alcotest.(check int) "default size" 1 (Serve.Pool.size pool);
  Alcotest.(check (array int)) "sequential execution" [| 1; 2 |]
    (Serve.Pool.run pool [| (fun () -> 1); (fun () -> 2) |]);
  Serve.Pool.shutdown pool;
  Serve.Pool.shutdown pool (* idempotent *);
  (match Serve.Pool.run pool [| (fun () -> 0) |] with
  | _ -> Alcotest.fail "run after shutdown must raise"
  | exception Invalid_argument _ -> ());
  (match Serve.Pool.create ~domains:0 () with
  | _ -> Alcotest.fail "create ~domains:0 must raise"
  | exception Invalid_argument _ -> ())

(* pool-executed batches agree with the sequential executor and the
   engine, for each domain count, duplicates included *)
let prop_parallel_batch_equals_sequential =
  qtest ~count:30 "parallel batch = sequential batch = engine"
    (tree_gen ())
    (fun t ->
      Tree.seal t;
      let queries =
        Array.init 12 (fun i ->
            E.parse_xpath (List.nth batch_pool (i mod List.length batch_pool)))
      in
      let prepared = Array.map (fun q -> E.prepare q) queries in
      let seq = Serve.Batch.run_prepared t prepared in
      List.for_all
        (fun domains ->
          let pool = Serve.Pool.create ~domains () in
          Fun.protect ~finally:(fun () -> Serve.Pool.shutdown pool)
          @@ fun () ->
          let par = Serve.Batch.run_prepared ~pool t prepared in
          par.Serve.Batch.distinct = seq.Serve.Batch.distinct
          && Array.for_all2 Nodeset.equal par.Serve.Batch.answers
               seq.Serve.Batch.answers
          && Array.for_all2
               (fun ans q -> Nodeset.equal ans (E.eval q t))
               par.Serve.Batch.answers queries)
        [ 1; 2; 4 ])

(* shard-merged counters across a real multi-domain server run equal the
   single-threaded totals, and the answers agree *)
let test_parallel_server_counters_match () =
  with_clean_obs @@ fun () ->
  let t = fig2_tree () in
  Tree.seal t;
  let shapes = mini_shapes [ "//mail[date]"; "//item"; "//person/name" ] in
  let run ?pool () =
    Obs.reset ();
    let cfg = Serve.Server.config ~concurrency:8 ?pool () in
    let stats =
      Obs.with_enabled true (fun () ->
          Serve.Server.run cfg t shapes (closed_requests 60 3))
    in
    let r = Obs.Report.capture () in
    (stats, r.Obs.Report.counters, List.length r.Obs.Report.profiles)
  in
  let s1, c1, p1 = run () in
  let pool = Serve.Pool.create ~domains:4 () in
  let s4, c4, p4 =
    Fun.protect ~finally:(fun () -> Serve.Pool.shutdown pool) (fun () ->
        run ~pool ())
  in
  Alcotest.(check int) "served" s1.Serve.Server.served s4.Serve.Server.served;
  Alcotest.(check int) "result nodes" s1.Serve.Server.result_nodes
    s4.Serve.Server.result_nodes;
  Alcotest.(check int) "profile count" p1 p4;
  List.iter
    (fun (k, v) ->
      Alcotest.(check int)
        (Printf.sprintf "counter %s" k)
        v
        (Option.value ~default:0 (List.assoc_opt k c4)))
    c1;
  Alcotest.(check int) "no extra counters" (List.length c1) (List.length c4)

(* the pooled ingest loop runs each document under its own shard: the
   2-domain run reports exactly the sequential counters (no racing
   increments on the global cells) and keeps every worker span *)
let test_parallel_ingest_matches_sequential () =
  with_clean_obs @@ fun () ->
  let run pool =
    Obs.reset ();
    let s =
      Obs.with_enabled true (fun () ->
          Serve.Ingest.run
            {
              Serve.Ingest.seed = 3;
              registrations = 300;
              docs = 40;
              churn = 0.1;
              scale = 1;
              pool;
              one_at_a_time = false;
              on_chunk = None;
            })
    in
    let r = Obs.Report.capture () in
    (s.Serve.Ingest.fired_per_doc, r.Obs.Report.counters, Obs.Report.span_count r)
  in
  let f1, c1, n1 = run None in
  let pool = Serve.Pool.create ~domains:2 () in
  let f2, c2, n2 =
    Fun.protect ~finally:(fun () -> Serve.Pool.shutdown pool) (fun () -> run (Some pool))
  in
  Alcotest.(check (array int)) "fired per document" f1 f2;
  Alcotest.(check (list (pair string int))) "counters" c1 c2;
  Alcotest.(check int) "span count" n1 n2

(* ------------------------------------------------------------------ *)
(* wall-clock mode and seed-split request streams *)

let test_wall_clock_smoke () =
  let t = fig2_tree () in
  let shapes = mini_shapes [ "//a"; "//a[b]" ] in
  let slept = ref 0.0 in
  let cfg =
    Serve.Server.config ~concurrency:4 ~wall_clock:true
      ~sleep:(fun d -> slept := !slept +. d)
      ()
  in
  (* arrivals far in the future force the sleep path; the injected sleep
     records the waits instead of blocking the test *)
  let reqs =
    List.init 8 (fun i ->
        { Serve.Workload.id = i; shape = i mod 2; arrival = Some 0.0 })
  in
  let stats = Serve.Server.run cfg t shapes reqs in
  Alcotest.(check int) "all served" 8 stats.Serve.Server.served;
  Alcotest.(check bool) "elapsed is wall time" true
    (stats.Serve.Server.elapsed >= 0.0);
  Alcotest.(check int) "latency samples" 8 stats.Serve.Server.latency.Obs.count

let test_requests_split_replayable () =
  let sig_of rs =
    List.map (fun (r : Serve.Workload.request) -> (r.id, r.shape, r.arrival)) rs
  in
  let a =
    Serve.Workload.requests_split ~seed:42 ~shapes:7 ~count:100
      (Serve.Workload.Open_loop { rate = 500.0 })
  in
  let b =
    Serve.Workload.requests_split ~seed:42 ~shapes:7 ~count:100
      (Serve.Workload.Open_loop { rate = 500.0 })
  in
  Alcotest.(check bool) "same seed, same stream" true (sig_of a = sig_of b);
  (* prefix property: the stream is per-request, so a shorter run is a
     prefix of a longer one — independent of consumption or domains *)
  let short =
    Serve.Workload.requests_split ~seed:42 ~shapes:7 ~count:40
      (Serve.Workload.Open_loop { rate = 500.0 })
  in
  let prefix = List.filteri (fun i _ -> i < 40) a in
  Alcotest.(check bool) "count-40 stream is the count-100 prefix" true
    (sig_of short = sig_of prefix);
  let c =
    Serve.Workload.requests_split ~seed:43 ~shapes:7 ~count:100
      (Serve.Workload.Open_loop { rate = 500.0 })
  in
  Alcotest.(check bool) "different seed, different stream" true
    (sig_of a <> sig_of c);
  (* shape indices stay in range and hit more than one shape *)
  Alcotest.(check bool) "shapes in range" true
    (List.for_all (fun (r : Serve.Workload.request) -> r.shape >= 0 && r.shape < 7) a);
  Alcotest.(check bool) "not constant" true
    (List.exists (fun (r : Serve.Workload.request) -> r.shape <> (List.hd a).shape) a)

let test_registrations_split () =
  let module W = Serve.Workload in
  let stream ?(seed = 42) ?(count = 200) ?(churn = 0.25) () =
    W.registrations_split ~seed ~shapes:count ~count ~churn
  in
  let a = stream () and b = stream () in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  Alcotest.(check bool) "different seed, different stream" true
    (a <> stream ~seed:43 ());
  (* prefix-stable: each event is a pure function of (seed, index) *)
  let short = stream ~count:80 () in
  Alcotest.(check bool) "count-80 stream is the count-200 prefix" true
    (short = List.filteri (fun i _ -> i < 80) a);
  (* churn invariants: ids are script positions, unregistrations always
     target an earlier position, register events consume shape ordinals
     0,1,2,... so every registration has a distinct canonical query *)
  let next_shape = ref 0 in
  List.iteri
    (fun i ev ->
      match ev with
      | W.Register { id; shape } ->
        Alcotest.(check int) "id is the event index" i id;
        Alcotest.(check int) "shapes consumed in order" !next_shape shape;
        incr next_shape
      | W.Unregister { id } ->
        Alcotest.(check bool) "unregister targets an earlier event" true
          (id >= 0 && id < i))
    a;
  let unregs =
    List.length (List.filter (function W.Unregister _ -> true | _ -> false) a)
  in
  Alcotest.(check bool) "churn 0.25 produces some unregistrations" true
    (unregs > 10 && unregs < 100);
  Alcotest.(check bool) "churn 0 is all registrations" true
    (List.for_all
       (function W.Register _ -> true | W.Unregister _ -> false)
       (stream ~churn:0.0 ()));
  Alcotest.check_raises "churn out of range rejected"
    (Invalid_argument "Workload.registrations_split: churn must be in [0, 1)")
    (fun () -> ignore (stream ~churn:1.0 ()))

(* ------------------------------------------------------------------ *)
(* the acceptance bar: cached-vs-cold differential oracle over 1k cases *)

let oracle_1k name () =
  let oracle =
    List.find (fun (o : Check.Oracles.t) -> o.name = name) Check.Oracles.all
  in
  let stats =
    Check.Runner.run { Check.Runner.default with cases = 1_000; oracles = [ oracle ] }
  in
  Alcotest.(check int) "no discrepancies" 0 (Check.Runner.discrepancy_count stats);
  List.iter
    (fun (_, passes, _, fails) ->
      Alcotest.(check int) "no fails" 0 fails;
      Alcotest.(check bool) "mostly applicable" true (passes >= 900))
    stats.Check.Runner.per_oracle

let test_oracle_1k = oracle_1k "plan-cache"
let test_parallel_oracle_1k = oracle_1k "parallel-batch"
let test_optimizer_oracle_1k = oracle_1k "optimizer-pick"

let suite =
  [
    Alcotest.test_case "fingerprint variants" `Quick test_fingerprint_variants;
    Alcotest.test_case "explain plan-cache line" `Quick test_explain_plan_cache;
    prop_alpha_rename;
    prop_fp_iff_canonical;
    prop_xpath_reassociation;
    Alcotest.test_case "plan cache LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "plan cache TTL expiry" `Quick test_ttl_expiry;
    Alcotest.test_case "plan cache disabled at capacity 0" `Quick test_cache_disabled;
    prop_batch_equals_engine;
    Alcotest.test_case "batch dedup shares answers" `Quick test_batch_dedup_shares;
    Alcotest.test_case "server closed loop stats" `Quick test_server_closed_loop;
    Alcotest.test_case "admission control rejects over bound" `Quick
      test_admission_rejects_over_bound;
    Alcotest.test_case "open loop sheds late requests" `Quick test_open_loop_sheds;
    Alcotest.test_case "workload generator" `Quick test_workload_generator;
    Alcotest.test_case "per-request scoped profiles" `Quick test_per_request_profiles;
    Alcotest.test_case "share-mode per-rep profiles" `Quick
      test_share_mode_profiles_per_rep;
    Alcotest.test_case "degrade logs priced fingerprint" `Quick
      test_degrade_logs_fingerprint;
    Alcotest.test_case "pool basics" `Quick test_pool_basics;
    Alcotest.test_case "pool drains after exception" `Quick
      test_pool_exception_drains;
    Alcotest.test_case "pool size one and shutdown" `Quick
      test_pool_size_one_and_shutdown;
    prop_parallel_batch_equals_sequential;
    Alcotest.test_case "parallel server counters match sequential" `Quick
      test_parallel_server_counters_match;
    Alcotest.test_case "parallel ingest counters and spans match sequential" `Quick
      test_parallel_ingest_matches_sequential;
    Alcotest.test_case "wall-clock smoke" `Quick test_wall_clock_smoke;
    Alcotest.test_case "seed-split request streams replay" `Quick
      test_requests_split_replayable;
    Alcotest.test_case "seed-split registration churn streams" `Quick
      test_registrations_split;
    Alcotest.test_case "plan-cache oracle x1000" `Slow test_oracle_1k;
    Alcotest.test_case "parallel-batch oracle x1000" `Slow
      test_parallel_oracle_1k;
    Alcotest.test_case "optimizer-pick oracle x1000" `Slow
      test_optimizer_oracle_1k;
  ]
