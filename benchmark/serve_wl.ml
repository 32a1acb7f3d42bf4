(* The serving workloads: query text in, answers out, through one
   long-lived [Serve.Server] state (plan cache, optimizer, cost store,
   flight recorder). *)

module Engine = Treequery.Engine
module Server = Serve.Server
module Plan_cache = Serve.Plan_cache
module Tree = Treekit.Tree

type params = {
  scale : int;  (** XMark scale of the one document *)
  queries : int;  (** distinct query texts, Zipf(1) popularity *)
  auto : bool;
      (** [--strategy auto] with cost store and flight recorder, Obs on,
          and a snapshot published once a round (about every second of
          serving, as [--ops-listen] does) *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  closed_ops : int;  (** closed requests per round, a multiple of [group] *)
  open_ops : int;  (** open requests per round *)
  open_rate : float;  (** open arrivals per second *)
}

let cache_capacity = 128

let group = 16

(* About 75k nodes and 100 queries whose plans all stay cached:
   evaluation does nearly all the work (data complexity). *)
let eval =
  {
    scale = 2112; queries = 100; auto = false; setups = 9; closed_ops = 32 * group;
    open_ops = 200; open_rate = 250.0;
  }

(* About 300 nodes and 2000 queries against 128 cache slots: parsing,
   planning, routing and telemetry do most of the work (query
   complexity).  Obs retains every span, as a live ops plane does, so
   the request counts also bound the heap. *)
let adaptive =
  {
    scale = 8; queries = 2000; auto = true; setups = 3; closed_ops = 125 * group;
    open_ops = 1600; open_rate = 2000.0;
  }

let quick p =
  if p.auto then { p with queries = 60; setups = 2; closed_ops = 20 * group; open_ops = 100 }
  else { p with scale = 48; queries = 24; setups = 2; closed_ops = 20 * group; open_ops = 40 }

let parse (q : Gen.query) =
  match q.Gen.lang with
  | Gen.Xpath -> Engine.parse_xpath q.Gen.text
  | Gen.Cq -> Engine.parse_cq q.Gen.text

type state = {
  tree : Tree.t;
  cfg : Server.config;
  cache : Plan_cache.t;
  store : Telemetry.Cost_store.t option;
  recorder : Telemetry.Flight_recorder.t option;
  optimizer : Optimizer.t option;
  publisher : Opsplane.Snapshot.publisher option;
  mutable publish_due : bool;  (** publish with the next request *)
  mutable publishes : int;
  mutable publish_words : float;
  (* requests sent, requests failed, Server.run calls, distinct plans
     evaluated — since this state was set up *)
  mutable requests : int;
  mutable failed : int;
  mutable runs : int;
  mutable distinct : int;
}

(* A snapshot is published halfway through each round's open segment,
   always at the same point, so that every round's latencies hold one
   publication stall: timed every second instead, it fell into the
   short closed segments in some rounds and into no open segment in
   others. *)
let publish st spans ~id =
  match st.publisher with
  | Some p when st.publish_due ->
    let w0 = Gc.minor_words () in
    Spans.with_ spans Spans.Opsplane_publish ~id (fun () ->
        let cs = Plan_cache.stats st.cache in
        let g = Obs.Openmetrics.gauge in
        let gauges =
          [
            g ~help:"Plans currently cached." "serve_plan_cache_size" (float_of_int cs.Plan_cache.size);
            g ~help:"Plan-cache capacity." "serve_plan_cache_capacity" (float_of_int cs.Plan_cache.capacity);
          ]
          @
          match st.optimizer with
          | Some o ->
            let os = Optimizer.stats o in
            [
              g ~help:"Query shapes tracked by the adaptive optimizer." "serve_optimizer_entries"
                (float_of_int os.Optimizer.entries);
              g ~help:"Query shapes whose strategy choice has converged." "serve_optimizer_converged"
                (float_of_int os.Optimizer.converged);
            ]
          | None -> []
        in
        ignore
          (Opsplane.Snapshot.publish ?telemetry:st.store ?recorder:st.recorder ~gauges
             ~status:[ ("cache", Printf.sprintf "%d/%d" cs.Plan_cache.size cs.Plan_cache.capacity) ]
             p));
    st.publish_words <- st.publish_words +. (Gc.minor_words () -. w0);
    st.publishes <- st.publishes + 1;
    st.publish_due <- false
  | _ -> ()

(* One [Server.run] call for the queries [qs] (indices into [texts]),
   each parsed from its text first.  The call is correct when every
   request is served and the answer sizes add up to the references. *)
let serve st spans ~texts ~refs ~id qs =
  let k = Array.length qs in
  let ok =
    Spans.with_ spans Spans.Op ~id @@ fun () ->
    let ok =
      match
        let shapes =
          Array.map
            (fun qi ->
              let q = texts.(qi) in
              {
                Serve.Workload.source = q.Gen.text;
                query = Spans.with_ spans Spans.Treequery_parse ~id (fun () -> parse q);
              })
            qs
        in
        let reqs =
          List.init k (fun i -> { Serve.Workload.id = id + i; shape = i; arrival = None })
        in
        Spans.with_ spans Spans.Serve_run ~id (fun () -> Server.run st.cfg st.tree shapes reqs)
      with
      | s ->
        st.runs <- st.runs + 1;
        st.distinct <- st.distinct + s.Server.distinct_evaluated;
        s.Server.served = k
        && s.Server.errors = 0
        && s.Server.result_nodes = Array.fold_left (fun acc qi -> acc + refs.(qi)) 0 qs
      | exception _ -> false
    in
    publish st spans ~id;
    ok
  in
  st.requests <- st.requests + k;
  if not ok then st.failed <- st.failed + k;
  ok

let groups_of a =
  Array.init ((Array.length a + group - 1) / group) (fun g ->
      Array.sub a (g * group) (min group (Array.length a - (g * group))))

(* From document text in memory to ready: parse and seal, assemble the
   components, then send every distinct query through the server —
   under auto, until the optimizer has converged on every shape.  Each
   pass but the first publishes a snapshot with its first request, as
   a live ops plane would during the warm-up. *)
let setup p spans ~doc ~texts ~refs =
  let t0 = Loop.now () in
  if p.auto then begin
    Obs.set_enabled true;
    Obs.reset ()
  end;
  let tree = Spans.with_ spans Spans.Treekit_parse ~id:0 (fun () -> Treekit.Xml.parse doc) in
  Tree.seal tree;
  let cache = Plan_cache.create ~capacity:cache_capacity () in
  let store = if p.auto then Some (Telemetry.Cost_store.create ()) else None in
  let recorder = if p.auto then Some (Telemetry.Flight_recorder.create ()) else None in
  let optimizer = if p.auto then Some (Optimizer.create ?store ()) else None in
  let cfg =
    Server.config ~cache ~concurrency:group ~share:(not p.auto) ?telemetry:store ?recorder
      ?optimizer ()
  in
  let st =
    {
      tree; cfg; cache; store; recorder; optimizer;
      publisher = (if p.auto then Some (Opsplane.Snapshot.create ()) else None);
      publish_due = false; publishes = 0; publish_words = 0.0;
      requests = 0; failed = 0; runs = 0; distinct = 0;
    }
  in
  let all = groups_of (Array.init (Array.length texts) Fun.id) in
  let passes = ref [] in
  let pass () =
    let t = Loop.now () in
    st.publish_due <- !passes <> [];
    Array.iter (fun qs -> ignore (serve st spans ~texts ~refs ~id:(-1) qs)) all;
    passes := (Loop.now () -. t) :: !passes
  in
  pass ();
  (match optimizer with
  | Some o ->
    let unconverged () =
      let s = Optimizer.stats o in
      s.Optimizer.converged < s.Optimizer.entries
    in
    while unconverged () && List.compare_length_with !passes 64 < 0 do
      pass ()
    done
  | None -> ());
  (* the passes, last first: the last one, run with every pick settled,
     is what a set-up that never explored would cost *)
  (st, Loop.now () -. t0, !passes)

(* Second strategies, cheapest first on the reference host's 75k-node
   document: Horn-SAT took 0.2–1.7 s a query there, arc consistency up
   to 13 s on a chain of [following] atoms, FO² is quadratic. *)
let reference_order =
  Engine.
    [
      Cq_yannakakis; Cq_rewrite; Xpath_bottom_up; Positive_rewrite; Datalog_fixpoint; Cq_arc_consistency;
      Datalog_hornsat; Xpath_fo2;
    ]

(* The answer size of every distinct query, from the first other
   strategy in [reference_order] the engine offers for it, or the
   default when it offers none; computed before anything is timed. *)
let references ~doc parsed =
  let tree = Treekit.Xml.parse doc in
  Array.map
    (fun q ->
      let default = Engine.plan q and offered = Engine.strategies q in
      let s =
        Option.value ~default
          (List.find_opt (fun s -> s <> default && List.mem s offered) reference_order)
      in
      Treekit.Nodeset.cardinal ((Engine.prepare_with s q).Engine.exec tree))
    parsed

(* The plan serving runs for each distinct query: the optimizer's
   converged choice under auto, the planner's default otherwise. *)
let served_plans st parsed =
  let choice = Hashtbl.create 64 in
  Option.iter
    (fun o ->
      List.iter
        (fun (r : Optimizer.entry_report) ->
          Option.iter (Hashtbl.replace choice r.Optimizer.r_canon) r.Optimizer.r_choice)
        (Optimizer.report o))
    st.optimizer;
  Array.map
    (fun q ->
      match Option.bind (Hashtbl.find_opt choice (Engine.canonical q)) Engine.strategy_of_name with
      | Some s when List.mem s (Engine.strategies q) -> Engine.prepare_with s q
      | _ -> Engine.prepare q)
    parsed

let run p ~seed ~seconds ~trace ~trace_file =
  let lap, laps = Outcome.stopwatch () in
  let rounds = Loop.rounds_in seconds in
  let doc = Gen.xmark_text (Gen.rng ~seed ~salt:1) ~scale:p.scale in
  let texts = Gen.serve_queries (Gen.rng ~seed:Gen.population_seed ~salt:2) p.queries in
  let zipf salt per_round =
    Gen.zipf_sequence (Gen.rng ~seed ~salt) ~items:p.queries ~count:(rounds * per_round) ~block:per_round
  in
  let closed_seq = zipf 3 p.closed_ops and open_seq = zipf 4 p.open_ops in
  let due =
    let rng = Gen.rng ~seed ~salt:5 in
    Array.init rounds (fun _ -> Gen.poisson rng ~rate:p.open_rate ~count:p.open_ops)
  in
  let digest = Gen.Digest_acc.create () in
  Gen.Digest_acc.add digest doc;
  Array.iter (fun q -> Gen.Digest_acc.add digest q.Gen.text) texts;
  Gen.Digest_acc.add_ints digest closed_seq;
  Gen.Digest_acc.add_ints digest open_seq;
  Array.iter (Gen.Digest_acc.add_floats digest) due;
  let parsed = Array.map parse texts in
  lap "inputs";
  let refs = references ~doc parsed in
  lap "references";
  let heap_base = Loop.heap_baseline () in
  let spans = Spans.create () in
  spans.Spans.on <- trace;
  let attempted = ref 0 and failed = ref 0 and passes = ref [] in
  let setups, st =
    Loop.repeat_setup ~times:p.setups (fun () ->
        let st, dt, ps = setup p spans ~doc ~texts ~refs in
        passes := ps;
        attempted := !attempted + st.requests;
        failed := !failed + st.failed;
        (st, dt))
  in
  spans.Spans.on <- false;
  lap "set-up";
  let requests0 = st.requests and failed0 = st.failed in
  let from = spans.Spans.len in
  let cache0 = Plan_cache.stats st.cache in
  let runs0 = st.runs and distinct0 = st.distinct in
  let flight () = Option.fold ~none:0 ~some:Telemetry.Flight_recorder.total st.recorder in
  let violations () = Option.fold ~none:0 ~some:Telemetry.Cost_store.violations st.store in
  let flight0 = flight () and violations0 = violations () in
  let counters = ref [] and groups = ref [] and next = ref 0 in
  let step () =
    let qs = Array.sub closed_seq !next group in
    if spans.Spans.on && List.compare_length_with !groups 256 < 0 then groups := qs :: !groups;
    ignore (serve st spans ~texts ~refs ~id:!next qs);
    next := !next + group;
    group
  in
  let dispatch first k =
    Array.make k (serve st spans ~texts ~refs ~id:(Array.length closed_seq + first) (Array.sub open_seq first k))
  in
  let around r f = if trace && Outcome.traced r then Outcome.traced_round spans counters f else f () in
  let m =
    Loop.run ~rounds ~closed_ops:p.closed_ops ~open_ops:p.open_ops
      ~due:(fun r i -> due.(r).(i))
      ~max_group:group
      ~mid_open:(fun () -> st.publish_due <- true)
      ~around ~step ~dispatch ()
  in
  lap "rounds";
  Option.iter (Spans.write_chrome spans) trace_file;
  let attempted = !attempted + st.requests - requests0 in
  let failed = !failed + st.failed - failed0 in
  let info () =
    [
      ( "inputs",
        Printf.sprintf "digest=%s doc_bytes=%d doc_nodes=%d queries=%d rounds=%d" (Gen.Digest_acc.hex digest)
          (String.length doc) (Tree.size st.tree) p.queries rounds );
      ( "setup",
        Printf.sprintf "median of %d; the last: %d warm-up passes, the last of them %.3fs" (Array.length setups)
          (List.length !passes) (List.hd !passes) );
    ]
    @ Loop.describe ~rate:p.open_rate m.Loop.rounds
    @ [ ("stages", laps ()) ]
  in
  if not trace then Outcome.untraced ~attempted ~failed ~info:(info ()) ~setups ~heap_base m
  else begin
    let traced_rounds, plain_rounds = Outcome.split m in
    let ops_in rs = Array.fold_left (fun a r -> a + r.Loop.closed_ops + Array.length r.Loop.latency) 0 rs in
    let traced_ops = ops_in traced_rounds and all_ops = ops_in m.Loop.rounds in
    let per_traced x = x /. float_of_int (max 1 traced_ops) and per_op x = x /. float_of_int (max 1 all_ops) in
    let cdelta name = float_of_int (Outcome.counter_delta !counters name) in
    let obs_spans = Obs.Report.span_count (Obs.Report.capture ()) in
    (* Obs retains spans from its last reset: the last set-up under auto,
       the traced rounds otherwise *)
    let obs_ops = if p.auto then st.requests else traced_ops in
    Obs.set_enabled false;
    let tot = Spans.totals ~from spans and all = Spans.totals spans in
    let mean_us (t : Spans.totals) = 1e6 *. t.Spans.total /. float_of_int (max 1 t.Spans.count) in
    let cache1 = Plan_cache.stats st.cache in
    let hits = cache1.Plan_cache.hits - cache0.Plan_cache.hits in
    let misses = cache1.Plan_cache.misses - cache0.Plan_cache.misses in
    let served = st.requests - requests0 in
    (* every request of the rounds, in the order it was sent *)
    let sent =
      Array.concat
        (List.concat
           (List.init rounds (fun r ->
                [
                  Array.sub closed_seq (r * p.closed_ops) p.closed_ops;
                  Array.sub open_seq (r * p.open_ops) p.open_ops;
                ])))
    in
    lap "traced summary";
    (* isolated probes on the same inputs *)
    let prepare_s =
      Array.map (fun q -> Outcome.time_per_call ~runs:1 ~min_s:0.0 (fun () -> ignore (Engine.prepare q))) parsed
    in
    let find_s =
      let c = Plan_cache.create ~capacity:cache_capacity () in
      let lookups = Array.sub sent 0 (min 20_000 (Array.length sent)) in
      let t0 = Loop.now () in
      Array.iter (fun qi -> ignore (Plan_cache.find c parsed.(qi))) lookups;
      (Loop.now () -. t0) /. float_of_int (max 1 (Array.length lookups))
    in
    let plans = served_plans st parsed in
    let exec_s =
      Array.map (fun (pl : Engine.prepared) -> Outcome.time_per_call (fun () -> ignore (pl.Engine.exec st.tree))) plans
    in
    let eval_us = 1e6 *. Loop.mean (Array.map (fun qi -> exec_s.(qi)) sent) in
    let pool_efficiency =
      let thunks =
        List.map
          (fun qs ->
            Array.map
              (fun qi () -> ignore (plans.(qi).Engine.exec st.tree))
              (Array.of_list (List.sort_uniq compare (Array.to_list qs))))
          !groups
      in
      let time f =
        let t0 = Loop.now () in
        f ();
        Loop.now () -. t0
      in
      let t1 = time (fun () -> List.iter (Array.iter (fun f -> f ())) thunks) in
      let pool = Serve.Pool.create ~domains:2 () in
      let t2 =
        Fun.protect
          ~finally:(fun () -> Serve.Pool.shutdown pool)
          (fun () -> time (fun () -> List.iter (fun ts -> ignore (Serve.Pool.run pool ts)) thunks))
      in
      t1 /. (2.0 *. Float.max t2 1e-9)
    in
    lap "probes";
    let ostat f = match st.optimizer with Some o -> f (Optimizer.stats o) | None -> 0.0 in
    let layers =
      [
        ("treekit.parse_us_per_doc", mean_us (all Spans.Treekit_parse));
        ("treekit.nodes_visited_per_op", per_traced (cdelta "nodes_visited"));
        ("treequery.parse_us_per_op", 1e6 *. per_traced (tot Spans.Treequery_parse).Spans.self);
        ("treequery.prepare_us_per_miss", 1e6 *. Loop.mean prepare_s);
        ("plan_cache.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
        ( "plan_cache.evictions_per_kop",
          1e3 *. per_op (float_of_int (cache1.Plan_cache.evictions - cache0.Plan_cache.evictions)) );
        ("plan_cache.find_us_per_op", 1e6 *. find_s);
        ( "optimizer.explorations_per_kop",
          ostat (fun s -> 1e3 *. float_of_int s.Optimizer.explorations /. float_of_int (max 1 st.requests)) );
        ( "optimizer.converged_frac",
          ostat (fun s -> float_of_int s.Optimizer.converged /. float_of_int (max 1 s.Optimizer.entries)) );
        ("eval.us_per_op", eval_us);
        (* both as measured, on the same host *)
        ("eval.share", eval_us *. Loop.median (Array.map Loop.closed_rate plain_rounds) /. 1e6);
        ("cqtree.tuples_materialised_per_op", per_traced (cdelta "tuples_materialised"));
        ("serve.batch_dedup_ratio", float_of_int (st.distinct - distinct0) /. float_of_int (max 1 served));
        ("serve.group_size_mean", float_of_int served /. float_of_int (max 1 (st.runs - runs0)));
        ("serve.run_self_us_per_op", 1e6 *. per_traced (tot Spans.Serve_run).Spans.self);
        ("pool.efficiency", pool_efficiency);
        ("telemetry.flight_entries_per_op", per_op (float_of_int (flight () - flight0)));
        ("telemetry.residual_violations_per_kop", 1e3 *. per_op (float_of_int (violations () - violations0)));
        ("opsplane.publish_ms", 1e-3 *. mean_us (tot Spans.Opsplane_publish));
        ("opsplane.publish_words", st.publish_words /. float_of_int (max 1 st.publishes));
      ]
      @ Outcome.common_layers ~obs_spans ~obs_ops m spans
    in
    { Outcome.attempted; failed; info = info (); e2e = []; raw = []; layers }
  end
