module Engine = Treequery.Engine
module Tree = Treekit.Tree
module Nodeset = Treekit.Nodeset

type config = {
  cache : Plan_cache.t option;
  concurrency : int;
  share : bool;
  stream_prefilter : bool;
  deadline : float option;
  clock : unit -> float;
  telemetry : Telemetry.Cost_store.t option;
  recorder : Telemetry.Flight_recorder.t option;
  (* [optimizer]: adaptive strategy selection — each planned request is
     re-routed through [Optimizer.decide] (seeded estimates, then online
     argmin by observed latency), and admission prices the *picked*
     arm's bound; it learns from what [telemetry] records *)
  optimizer : Optimizer.t option;
  (* [force_strategy]: route every request whose query the strategy can
     evaluate through it (re-prepared once per canonical shape); shapes
     it cannot evaluate keep the planner default.  Wins over
     [optimizer].  The fixed arms of the auto-vs-fixed bench use this. *)
  force_strategy : Engine.strategy option;
  inject_overbudget : bool;
  tick_every : float option;
  on_tick : (int -> float -> unit) option;
  (* [pool]: admitted requests of a chunk (or batch reps in share mode)
     execute in parallel on its domains; the tree must be sealed
     ({!Treekit.Tree.seal}) before [run].  [None] keeps the sequential
     path bit-identical to pre-pool behaviour. *)
  pool : Pool.t option;
  (* [wall_clock]: open-loop arrivals are honoured in real time — the
     loop sleeps until each chunk's last arrival instead of advancing
     the virtual clock, so throughput/latency come from [clock] itself *)
  wall_clock : bool;
  (* how to wait for the next arrival in wall-clock mode; the library
     does not link [unix], so the CLI injects [Unix.sleepf] (default:
     no-op, i.e. arrivals are treated as already due) *)
  sleep : float -> unit;
}

let config ?cache ?(concurrency = 1) ?(share = false)
    ?(stream_prefilter = false) ?deadline ?(clock = Obs.now) ?telemetry
    ?recorder ?optimizer ?force_strategy ?(inject_overbudget = false)
    ?tick_every ?on_tick ?pool ?(wall_clock = false) ?(sleep = fun _ -> ()) () =
  if concurrency < 1 then invalid_arg "Server.config: concurrency must be >= 1";
  (match tick_every with
  | Some e when e <= 0.0 -> invalid_arg "Server.config: tick_every must be > 0"
  | _ -> ());
  (* routing learns only from the store the server records into: with
     any other store an exploring entry would never see an observation *)
  (match (Option.bind optimizer Optimizer.store, telemetry) with
  | Some s, Some t when s == t -> ()
  | Some _, _ ->
    invalid_arg "Server.config: the optimizer's store must be the telemetry store"
  | None, _ -> ());
  {
    cache; concurrency; share; stream_prefilter; deadline; clock; telemetry;
    recorder; optimizer; force_strategy; inject_overbudget; tick_every;
    on_tick; pool; wall_clock; sleep;
  }

let reject_reason = "degraded: naive bound exceeded"

let c_served = Obs.Counter.make "serve_requests_served"
let c_rejected = Obs.Counter.make "serve_requests_rejected"
let c_shed = Obs.Counter.make "serve_requests_shed"
let c_residual = Obs.Counter.make "serve_residual_violations"

(* the fault the telemetry smoke tests inject: work the price never
   covered — twice the price, burned inside the plan's execution (so
   inside the request's or rep's scope, in either serving mode) and the
   observed cost provably exceeds the prediction.  The cap keeps a
   run's counter total inside an OCaml int; it lies above the price of
   every plan with |Q| <= 40 on a document of up to 10,000 nodes. *)
let c_injected = Obs.Counter.make "serve_injected_work"

let with_injected_work bound (p : Engine.prepared) =
  let work = 2 * max 1 (int_of_float (Float.min bound 1e15)) in
  Engine.with_exec p (fun tree ->
      let answer = p.Engine.exec tree in
      Obs.Counter.add c_injected work;
      answer)

let latency_hist = Obs.Histogram.make "serve_latency"

type stats = {
  requests : int;
  served : int;
  rejected : int;
  shed : int;
  errors : int;
  distinct_evaluated : int;
  stream_pruned : int;
  result_nodes : int;
  elapsed : float;
  throughput : float;
  latency : Obs.histogram_summary;
  cache : Plan_cache.stats option;
  degraded : (string * float) list;
  residual_violations : int;
}

let run cfg tree (shapes : Workload.shape array) (reqs : Workload.request list) =
  let serve_attrs =
    if Obs.enabled () then
      [
        ("|D|", Obs.Int (Tree.size tree));
        ("requests", Obs.Int (List.length reqs));
        ("concurrency", Obs.Int cfg.concurrency);
        ("share", Obs.Str (string_of_bool cfg.share));
      ]
      @ (match cfg.pool with
        | Some p -> [ ("domains", Obs.Int (Pool.size p)) ]
        | None -> [])
    else []
  in
  Obs.Span.with_ ~attrs:serve_attrs "serve" @@ fun () ->
  Obs.Histogram.clear latency_hist;
  let t_start = cfg.clock () in
  let served = ref 0 and rejected = ref 0 and shed = ref 0 and errors = ref 0 in
  let distinct = ref 0 and pruned = ref 0 and nodes = ref 0 in
  let total = ref 0 in
  (* shed/degrade decisions, with the fingerprint (and bound) they
     priced: surfaced in [stats.degraded], in the trace (one
     [serve:degrade]/[serve:shed] child span per decision) and in
     {!to_text} *)
  let degraded = ref [] in
  let residual_violations = ref 0 in
  (* virtual server time (seconds since t_start); service durations are
     real, queueing is simulated *)
  let vnow = ref 0.0 in
  (* periodic telemetry ticks are driven by virtual time, so snapshot
     cadence is deterministic under a fake clock *)
  let tick_idx = ref 0 in
  let next_tick = ref (match cfg.tick_every with Some e -> e | None -> infinity) in
  let fire_ticks () =
    match cfg.on_tick with
    | Some f ->
      while !vnow >= !next_tick do
        f !tick_idx !next_tick;
        incr tick_idx;
        next_tick := !next_tick +. (match cfg.tick_every with Some e -> e | None -> infinity)
      done
    | None -> ()
  in
  let strategy_of (p : Engine.prepared) = Engine.strategy_name p.Engine.strategy in
  (* every plan is priced from the engine's one table: admission rejects
     a plan whose price exceeds what the deadline affords (the optimizer
     explores only arms that pass), and the residual compares the price
     with the work the plan's [exec] counted *)
  let n = float_of_int (Tree.size tree) in
  let price p = Engine.price p ~n in
  let admit (p : Engine.prepared) =
    match cfg.deadline with
    | Some d -> price p <= d *. Engine.ops_per_second
    | None -> true
  in
  (* forced-strategy plans, compiled once per canonical shape (the plan
     cache holds the planner default; re-preparing per request would pay
     the rewrite strategy's exponential compile on every hit) *)
  let forced_memo : (string, Engine.prepared) Hashtbl.t = Hashtbl.create 8 in
  let apply_force s (p : Engine.prepared) =
    if p.Engine.strategy = s then p
    else
      match Hashtbl.find_opt forced_memo p.Engine.canon with
      | Some fp -> fp
      | None ->
        let fp =
          if List.mem s (Engine.strategies p.Engine.source) then
            Engine.prepare_with s p.Engine.source
          else p
        in
        Hashtbl.add forced_memo p.Engine.canon fp;
        fp
  in
  (* feed the cost store and flight recorder with one served request's
     (or batch rep's) profile; returns nothing but counts violations *)
  let record_telemetry ~id ~(p : Engine.prepared) ~bound ~(profile : Obs.profile)
      ~wall =
    let latency =
      if profile.Obs.profile_duration > 0.0 then profile.Obs.profile_duration
      else wall
    in
    let observed = float_of_int (Engine.work profile) in
    let violation =
      match cfg.telemetry with
      | Some store ->
        Telemetry.Cost_store.observe store ~fingerprint:p.Engine.fp
          ~strategy:(strategy_of p) ~predicted:bound ~observed ~latency
          ~counters:profile.Obs.profile_counters
      | None -> false
    in
    if violation then begin
      incr residual_violations;
      Obs.Counter.incr c_residual
    end;
    match cfg.recorder with
    | None -> ()
    | Some rec_ ->
      if violation then Telemetry.Flight_recorder.trigger rec_ "residual-violation";
      Telemetry.Flight_recorder.push rec_
        {
          Telemetry.Flight_recorder.id;
          fingerprint = p.Engine.fp;
          strategy = strategy_of p;
          attrs = profile.Obs.profile_attrs;
          counters = profile.Obs.profile_counters;
          latency;
          predicted = bound;
          observed;
          outcome =
            (if violation then Telemetry.Flight_recorder.Violation
             else Telemetry.Flight_recorder.Served);
        }
  in
  let rec chunks = function
    | [] -> ()
    | reqs ->
      let rec take k acc = function
        | r :: rest when k > 0 -> take (k - 1) (r :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let chunk, rest = take cfg.concurrency [] reqs in
      (* the batch is admitted when its last request has arrived *)
      let arrival_max =
        List.fold_left
          (fun v (r : Workload.request) ->
            match r.arrival with Some a -> Float.max v a | None -> v)
          !vnow chunk
      in
      let vstart =
        if cfg.wall_clock then begin
          (* honour the arrival schedule in real time: wait out the gap
             when the server is ahead; when it is behind, the backlog is
             real queueing delay and shows up in the open-loop latency *)
          let now = cfg.clock () -. t_start in
          if arrival_max > now then cfg.sleep (arrival_max -. now);
          Float.max arrival_max (cfg.clock () -. t_start)
        end
        else arrival_max
      in
      let admitted =
        List.filter_map
          (fun (r : Workload.request) ->
            incr total;
            let late =
              match (cfg.deadline, r.arrival) with
              | Some d, Some a -> vstart -. a > d
              | _ -> false
            in
            if late then begin
              incr shed;
              Obs.Counter.incr c_shed;
              if Obs.enabled () then
                Obs.Span.with_
                  ~attrs:
                    [
                      ("request", Obs.Int r.Workload.id);
                      ("shape", Obs.Int r.shape);
                    ]
                  "serve:shed" ignore;
              (match cfg.recorder with
              | None -> ()
              | Some rec_ ->
                Telemetry.Flight_recorder.trigger rec_ "shed";
                Telemetry.Flight_recorder.push rec_
                  {
                    (* shed happens before planning, so no fingerprint *)
                    Telemetry.Flight_recorder.id = r.Workload.id;
                    fingerprint = "";
                    strategy = "";
                    attrs = [ ("shape", Obs.Int r.shape) ];
                    counters = [];
                    latency =
                      (match r.arrival with Some a -> vstart -. a | None -> 0.0);
                    predicted = 0.0;
                    observed = 0.0;
                    outcome = Telemetry.Flight_recorder.Shed;
                  });
              None
            end
            else begin
              let prepared =
                Obs.Span.with_ "serve:plan" @@ fun () ->
                match cfg.cache with
                | Some c -> snd (Plan_cache.find c shapes.(r.shape).Workload.query)
                | None -> Engine.prepare shapes.(r.shape).Workload.query
              in
              (* adaptive routing: re-pick the strategy, so admission
                 prices — and execution runs — the arm the optimizer
                 chose *)
              let prepared =
                match (cfg.force_strategy, cfg.optimizer) with
                | Some s, _ -> apply_force s prepared
                | None, None -> prepared
                | None, Some opt ->
                  (Optimizer.decide ~admit opt tree prepared).Optimizer.d_prepared
              in
              let bound = price prepared in
              if not (admit prepared) then begin
                incr rejected;
                Obs.Counter.incr c_rejected;
                degraded := (prepared.Engine.fp, bound) :: !degraded;
                if Obs.enabled () then
                  Obs.Span.with_
                    ~attrs:
                      [
                        ("request", Obs.Int r.Workload.id);
                        ("fingerprint", Obs.Str prepared.Engine.fp);
                        ("bound", Obs.Int (int_of_float bound));
                      ]
                    "serve:degrade" ignore;
                (match cfg.recorder with
                | None -> ()
                | Some rec_ ->
                  Telemetry.Flight_recorder.trigger rec_ "degrade";
                  Telemetry.Flight_recorder.push rec_
                    {
                      Telemetry.Flight_recorder.id = r.Workload.id;
                      fingerprint = prepared.Engine.fp;
                      strategy = strategy_of prepared;
                      attrs = [];
                      counters = [];
                      latency = 0.0;
                      predicted = bound;
                      observed = 0.0;
                      outcome = Telemetry.Flight_recorder.Rejected;
                    });
                None
              end
              else if cfg.inject_overbudget then
                Some (r, with_injected_work bound prepared, bound)
              else Some (r, prepared, bound)
            end)
          chunk
      in
      (match admitted with
      | [] -> vnow := vstart
      | _ -> (
        let plans = Array.of_list (List.map (fun (_, p, _) -> p) admitted) in
        let execute () =
          if cfg.share then
            (* per-rep telemetry: the hook re-prices the rep (the same
               price admission read) and feeds the store once per
               distinct plan *)
            let on_profile p profile =
              record_telemetry ~id:(-1) ~p ~bound:(price p) ~profile
                ~wall:profile.Obs.profile_duration
            in
            Batch.run_prepared ?pool:cfg.pool
              ~stream_prefilter:cfg.stream_prefilter ~on_profile tree plans
          else
            let admitted = Array.of_list admitted in
            (* one scope per request, so the counters each evaluation
               bumps are attributed to that request's profile *)
            let answers =
              Pool.mapi_sharded ?pool:cfg.pool
                (fun _ ((r : Workload.request), (p : Engine.prepared), _) ->
                  let t0 = cfg.clock () in
                  let answer, profile =
                    Obs.Scope.collect
                      ~attrs:
                        [
                          ("fingerprint", Obs.Str p.Engine.fp);
                          ("strategy", Obs.Str (strategy_of p));
                        ]
                      (Printf.sprintf "request-%d" r.Workload.id)
                      (fun () -> p.Engine.exec tree)
                  in
                  Obs.Scope.note profile;
                  (answer, profile, cfg.clock () -. t0))
                admitted
              |> Array.mapi (fun i (answer, profile, wall) ->
                     let (r : Workload.request), p, bound = admitted.(i) in
                     record_telemetry ~id:r.Workload.id ~p ~bound ~profile ~wall;
                     answer)
            in
            {
              Batch.answers;
              distinct = Array.length plans;
              stream_pruned = 0;
            }
        in
        let t0 = cfg.clock () in
        match execute () with
        | exception _ ->
          errors := !errors + List.length admitted;
          vnow :=
            if cfg.wall_clock then cfg.clock () -. t_start
            else vstart +. (cfg.clock () -. t0)
        | result ->
          let dt = cfg.clock () -. t0 in
          let vdone =
            if cfg.wall_clock then cfg.clock () -. t_start else vstart +. dt
          in
          vnow := vdone;
          distinct := !distinct + result.Batch.distinct;
          pruned := !pruned + result.Batch.stream_pruned;
          List.iteri
            (fun i ((r : Workload.request), _, _) ->
              incr served;
              Obs.Counter.incr c_served;
              nodes := !nodes + Nodeset.cardinal result.Batch.answers.(i);
              let latency =
                match r.arrival with
                | Some a -> vdone -. a (* queueing + service *)
                | None -> dt
              in
              Obs.Histogram.observe latency_hist latency)
            admitted));
      fire_ticks ();
      chunks rest
  in
  chunks reqs;
  let elapsed = cfg.clock () -. t_start in
  {
    requests = !total;
    served = !served;
    rejected = !rejected;
    shed = !shed;
    errors = !errors;
    distinct_evaluated = !distinct;
    stream_pruned = !pruned;
    result_nodes = !nodes;
    elapsed;
    throughput = (if elapsed > 0.0 then float_of_int !served /. elapsed else 0.0);
    latency = Obs.Histogram.summary latency_hist;
    cache = Option.map Plan_cache.stats cfg.cache;
    degraded = List.rev !degraded;
    residual_violations = !residual_violations;
  }

let to_text ?telemetry s =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.bprintf buf fmt in
  pr "requests:    %d\n" s.requests;
  pr "served:      %d\n" s.served;
  if s.rejected > 0 || s.shed > 0 || s.errors > 0 then begin
    pr "rejected:    %d (%s)\n" s.rejected reject_reason;
    pr "shed:        %d (deadline passed before admission)\n" s.shed;
    pr "errors:      %d\n" s.errors
  end;
  if s.residual_violations > 0 then
    pr "residuals:   %d requests over their predicted cost\n"
      s.residual_violations;
  pr "evaluated:   %d distinct plans (%d stream-pruned)\n" s.distinct_evaluated
    s.stream_pruned;
  pr "answers:     %d result nodes\n" s.result_nodes;
  pr "elapsed:     %.3f s  (%.0f req/s)\n" s.elapsed s.throughput;
  let l = s.latency in
  if l.Obs.count > 0 then
    pr "latency:     p50 %.3f ms  p90 %.3f ms  p95 %.3f ms  p99 %.3f ms  max %.3f ms\n"
      (1e3 *. l.Obs.p50) (1e3 *. l.Obs.p90) (1e3 *. l.Obs.p95)
      (1e3 *. l.Obs.p99) (1e3 *. l.Obs.max);
  (match s.cache with
  | None -> ()
  | Some c ->
    pr "plan cache:  %d hits, %d misses, %d evictions (%d/%d entries)\n"
      c.Plan_cache.hits c.Plan_cache.misses c.Plan_cache.evictions
      c.Plan_cache.size c.Plan_cache.capacity);
  (* which plans admission control refused, and the bound it priced *)
  (match s.degraded with
  | [] -> ()
  | ds ->
    let tally = Hashtbl.create 8 in
    List.iter
      (fun (fp, bound) ->
        let n, _ = Option.value ~default:(0, bound) (Hashtbl.find_opt tally fp) in
        Hashtbl.replace tally fp (n + 1, bound))
      ds;
    pr "degraded:    %d plans priced over the deadline budget\n"
      (Hashtbl.length tally);
    Hashtbl.iter
      (fun fp (n, bound) -> pr "  %-28s x%-5d bound %.3g ops\n" fp n bound)
      tally);
  (* the [treequery top]-style end-of-run table *)
  (match telemetry with
  | Some store when not (Telemetry.Cost_store.is_empty store) ->
    Buffer.add_string buf (Telemetry.Cost_store.to_table store)
  | _ -> ());
  Buffer.contents buf
