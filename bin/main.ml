(* The `treequery` command-line interface.

   Subcommands:
     eval      parse a query (XPath / CQ / datalog) and evaluate it on a
               document (XML file, inline XML, or a generated workload)
     explain   show the engine's plan and the paper's complexity bound
     filter    stream a document through forward path subscriptions
     serve     run a request workload through the serving layer
     subscribe stream documents past a registered standing-query population
     generate  emit a synthetic XML document *)

open Cmdliner
module Engine = Treequery.Engine
module Tree = Treekit.Tree
module Nodeset = Treekit.Nodeset

(* wall-clock span durations (the default Obs clock is processor time) *)
let () = Obs.set_clock Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* document sources *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_document ~xml_file ~xml ~random ~xmark ~seed =
  match xml_file, xml, random, xmark with
  | Some path, None, None, None -> Treekit.Xml.parse (read_file path)
  | None, Some text, None, None -> Treekit.Xml.parse text
  | None, None, Some n, None ->
    Treekit.Generator.random ~seed ~n ~labels:Treekit.Generator.labels_abc ()
  | None, None, None, Some scale -> Treekit.Generator.xmark ~seed ~scale ()
  | None, None, None, None ->
    failwith "no document: use --xml-file, --xml, --random or --xmark"
  | _ -> failwith "give exactly one of --xml-file, --xml, --random, --xmark"

let xml_file_arg =
  Arg.(value & opt (some file) None & info [ "xml-file" ] ~docv:"FILE" ~doc:"XML document to query.")

let xml_arg =
  Arg.(value & opt (some string) None & info [ "xml" ] ~docv:"XML" ~doc:"Inline XML document.")

let random_arg =
  Arg.(value & opt (some int) None & info [ "random" ] ~docv:"N" ~doc:"Random tree with $(docv) nodes.")

let xmark_arg =
  Arg.(value & opt (some int) None & info [ "xmark" ] ~docv:"SCALE" ~doc:"XMark-like document at scale $(docv).")

(* query in one of the five languages *)
let parse_query ~xpath ~cq ~datalog ~positive ~axis_datalog =
  match xpath, cq, datalog, positive, axis_datalog with
  | Some q, None, None, [], None -> Engine.parse_xpath q
  | None, Some q, None, [], None -> Engine.parse_cq q
  | None, None, Some q, [], None -> Engine.parse_datalog q
  | None, None, None, (_ :: _ as qs), None -> Engine.parse_positive qs
  | None, None, None, [], Some q -> Engine.parse_axis_datalog q
  | _ ->
    failwith
      "give exactly one of --xpath, --cq, --datalog, --positive (repeatable),        --axis-datalog"

let xpath_arg =
  Arg.(value & opt (some string) None & info [ "xpath" ] ~docv:"QUERY" ~doc:"Core XPath query.")

let cq_arg =
  Arg.(value & opt (some string) None & info [ "cq" ] ~docv:"QUERY" ~doc:"Conjunctive query (datalog-rule notation).")

let datalog_arg =
  Arg.(value & opt (some string) None & info [ "datalog" ] ~docv:"PROGRAM" ~doc:"Monadic datalog program with a ?- query directive.")

let positive_arg =
  Arg.(value & opt_all string [] & info [ "positive" ] ~docv:"QUERY" ~doc:"Disjunct of a positive FO query (repeatable; the union is evaluated).")

let axis_datalog_arg =
  Arg.(value & opt (some string) None & info [ "axis-datalog" ] ~docv:"PROGRAM" ~doc:"Monadic datalog over axis relations with a ?- query directive.")

(* ------------------------------------------------------------------ *)
(* options every run-something subcommand shares: generator seed and the
   observability sinks (one spec, applied with $ common_term) *)

type common = {
  seed : int;
  trace : bool;
  stats_json : string option;
  trace_out : string option;
}

let common_term =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Record tracing spans and counters; print the span tree to stderr after the run.")
  in
  let stats_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:"Write the observability report (per-phase span durations, counters, latency histograms and per-request profiles) as JSON to $(docv); '-' for stdout.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Stream completed spans to $(docv) as Chrome trace-event JSON (open in Perfetto or chrome://tracing).")
  in
  let mk seed trace stats_json trace_out = { seed; trace; stats_json; trace_out } in
  Term.(const mk $ seed_arg $ trace_arg $ stats_json_arg $ trace_out_arg)

(* [observe common f] runs [f] with observability enabled when any sink
   asks for it, then emits the report (and the streamed Perfetto trace
   when [--trace-out] is given).  [extra] forces collection for
   subcommand-specific sinks (serve's [--metrics-out] and telemetry),
   which receive the captured report through [emit]; [augment] rewrites
   the [--stats-json] document (serve splices in its telemetry section).
   All sinks go through [Obs.Json.write_file]/[write_raw], which close
   the fd under [Fun.protect] and treat "-" as stdout.  Returns
   [f ()]'s result. *)
let observe ?(extra = false) ?(augment = fun j -> j) ?(emit = fun _ -> ()) common f =
  let observing =
    common.trace || common.stats_json <> None || common.trace_out <> None || extra
  in
  if not observing then f ()
  else begin
    Obs.set_enabled true;
    Obs.reset ();
    let sink = Option.map (fun _ -> Obs.Trace.start_stream ()) common.trace_out in
    let result = f () in
    let report = Obs.Report.capture () in
    Obs.set_enabled false;
    (match (sink, common.trace_out) with
    | Some s, Some path -> Obs.Json.write_file path (Obs.Trace.stop_stream s)
    | _ -> ());
    if common.trace then prerr_string (Obs.Report.to_text report);
    (match common.stats_json with
    | None -> ()
    | Some path -> Obs.Json.write_file path (augment (Obs.Report.to_json_value report)));
    emit report;
    result
  end

(* the error taxonomy is the same for every subcommand *)
let handle_errors f =
  try f () with
  | Failure m | Invalid_argument m | Sys_error m -> `Error (false, m)
  | Treekit.Parse_error.Error { pos; msg } ->
    `Error (false, Treekit.Parse_error.to_string ~pos ~msg)

(* ------------------------------------------------------------------ *)
(* --ops-listen: the live ops plane.  A publisher holds the latest
   immutable observability snapshot (published by the admitting domain
   with a single atomic swap); the HTTP listener serves /metrics,
   /healthz, /readyz, /statusz, /tracez and /flightz from a dedicated
   domain without ever touching serving-path state. *)

let all_strategy_names =
  String.concat "," (List.map Engine.strategy_name Engine.all_strategies)

let ops_publisher () =
  Opsplane.Snapshot.create ~version:"1.0.0" ~strategies:all_strategy_names ()

let start_ops_listener ~publisher port =
  let router = Opsplane.Router.make publisher in
  let l =
    Opsplane.Listener.start ~port ~handler:(Opsplane.Router.handle router) ()
  in
  Printf.printf
    "ops:         listening on http://127.0.0.1:%d (/metrics /healthz /readyz \
     /statusz /tracez /flightz)\n\
     %!"
    (Opsplane.Listener.port l);
  l

(* ------------------------------------------------------------------ *)

let eval_cmd =
  let run xpath cq datalog positive axis_datalog xml_file xml random xmark show_labels common =
    handle_errors @@ fun () ->
    let answer, doc, q =
      observe common (fun () ->
          let doc =
            Obs.Span.with_ "load-document" (fun () ->
                load_document ~xml_file ~xml ~random ~xmark ~seed:common.seed)
          in
          let q =
            Obs.Span.with_ "parse-query" (fun () ->
                parse_query ~xpath ~cq ~datalog ~positive ~axis_datalog)
          in
          (Engine.solutions q doc, doc, q))
    in
    Printf.printf "document: %d nodes, depth %d\n" (Tree.size doc) (Tree.height doc);
    Printf.printf "strategy: %s\n" (Engine.strategy_name (Engine.plan q));
    Printf.printf "answers:  %d\n" (List.length answer);
    List.iter
      (fun tuple ->
        let cell v =
          if show_labels then Printf.sprintf "%d:%s" v (Tree.label doc v)
          else string_of_int v
        in
        print_endline
          ("  (" ^ String.concat ", " (List.map cell (Array.to_list tuple)) ^ ")"))
      answer;
    `Ok ()
  in
  let labels_arg =
    Arg.(value & flag & info [ "labels" ] ~doc:"Show node labels next to node ids.")
  in
  Cmd.v (Cmd.info "eval" ~doc:"Evaluate a query on a document")
    Term.(
      ret
        (const run $ xpath_arg $ cq_arg $ datalog_arg $ positive_arg
       $ axis_datalog_arg $ xml_file_arg $ xml_arg $ random_arg $ xmark_arg
       $ labels_arg $ common_term))

let explain_cmd =
  let run xpath cq datalog positive axis_datalog strategy xml_file xml random
      xmark common =
    handle_errors @@ fun () ->
    let text =
      observe common (fun () ->
          let q =
            Obs.Span.with_ "parse-query" (fun () ->
                parse_query ~xpath ~cq ~datalog ~positive ~axis_datalog)
          in
          match strategy with
          | "default" -> Engine.explain q
          | "auto" ->
            (* the adaptive pick needs document statistics; a generated
               1024-node document stands in when none is given *)
            let doc =
              if xml_file = None && xml = None && random = None && xmark = None
              then
                Treekit.Generator.random ~seed:common.seed ~n:1024
                  ~labels:Treekit.Generator.labels_abc ()
              else load_document ~xml_file ~xml ~random ~xmark ~seed:common.seed
            in
            let d = Optimizer.decide (Optimizer.create ()) doc (Engine.prepare q) in
            Engine.explain
              ~auto:(d.Optimizer.d_strategy, Optimizer.explain_decision d)
              q
          | s -> failwith (Printf.sprintf "--strategy must be \"default\" or \"auto\" (got %S)" s))
    in
    print_string text;
    `Ok ()
  in
  let strategy_arg =
    Arg.(
      value & opt string "default"
      & info [ "strategy" ] ~docv:"MODE"
          ~doc:"\"default\" shows the planner's pick; \"auto\" additionally runs the adaptive optimizer's seeded decision (against the given document, or a generated 1024-node one) and reports the candidate arms, the pick and why.")
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the evaluation plan and complexity bound")
    Term.(
      ret
        (const run $ xpath_arg $ cq_arg $ datalog_arg $ positive_arg
       $ axis_datalog_arg $ strategy_arg $ xml_file_arg $ xml_arg $ random_arg
       $ xmark_arg $ common_term))

let filter_cmd =
  let run patterns xml_file xml random xmark common =
    handle_errors @@ fun () ->
    let doc, matched =
      observe common (fun () ->
          let doc =
            Obs.Span.with_ "load-document" (fun () ->
                load_document ~xml_file ~xml ~random ~xmark ~seed:common.seed)
          in
          (* one standing query per pattern, registered under its
             position; a repeated pattern shares its index entry *)
          let index = Subscribe.Index.create () in
          List.iteri
            (fun id p ->
              let pattern = Streamq.Path_pattern.of_string p in
              let query = Engine.Xpath_query (Streamq.Path_pattern.to_xpath pattern) in
              ignore (Subscribe.Index.register index ~id query))
            patterns;
          (doc, Subscribe.Index.match_tree (Subscribe.Index.session index) doc))
    in
    Printf.printf "document: %d nodes, depth %d\n" (Tree.size doc) (Tree.height doc);
    List.iteri
      (fun i p ->
        Printf.printf "%-6s %s\n" (if List.mem i matched then "MATCH" else "-") p)
      patterns;
    `Ok ()
  in
  let patterns_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"PATTERN" ~doc:"Forward path patterns, e.g. //a/b.")
  in
  Cmd.v
    (Cmd.info "filter" ~doc:"Stream a document through path subscriptions")
    Term.(
      ret
        (const run $ patterns_arg $ xml_file_arg $ xml_arg $ random_arg $ xmark_arg
       $ common_term))

let serve_cmd =
  let run xml_file xml random xmark requests concurrency shapes cache_size ttl
      deadline_ms batch stream_prefilter workload domains wall_clock strategy
      metrics_out metrics_every residual_threshold flight_out dump_flight
      inject_overbudget ops_listen common =
    handle_errors @@ fun () ->
    let kind =
      match Serve.Workload.kind_of_string workload with
      | Ok k -> k
      | Error m -> failwith m
    in
    if domains < 1 then failwith "--domains must be >= 1";
    if concurrency < 1 then failwith "--concurrency must be >= 1";
    if requests < 0 then failwith "--requests must be >= 0";
    if shapes < 1 then failwith "--shapes must be >= 1";
    if cache_size < 0 then failwith "--cache-size must be >= 0";
    (match ttl with Some t when t <= 0.0 -> failwith "--ttl must be > 0" | _ -> ());
    (match deadline_ms with
    | Some d when d <= 0.0 -> failwith "--deadline-ms must be > 0"
    | _ -> ());
    (match metrics_every with
    | Some e when e <= 0.0 -> failwith "--metrics-every must be > 0"
    | _ -> ());
    if residual_threshold <= 0.0 then failwith "--residual-threshold must be > 0";
    if stream_prefilter && not batch then
      failwith "--stream-prefilter requires --batch";
    if dump_flight && flight_out = None then
      failwith "--dump-flight requires --flight-out";
    if metrics_every <> None && metrics_out = None && ops_listen = None then
      failwith "--metrics-every requires --metrics-out or --ops-listen";
    (* --strategy: "default" (the planner's static pick), "auto" (the
       adaptive optimizer) or a fixed strategy name to pin *)
    let strategy_mode =
      match strategy with
      | "default" -> `Default
      | "auto" -> `Auto
      | name -> (
        match Engine.strategy_of_name name with
        | Some s -> `Fixed s
        | None ->
          failwith
            (Printf.sprintf
               "unknown --strategy %S (use \"default\", \"auto\" or a strategy name)"
               name))
    in
    (* per-fingerprint telemetry rides along whenever a sink wants it:
       any telemetry flag, or --stats-json (which then carries the
       per-fingerprint summaries) *)
    let telemetry_on =
      flight_out <> None || dump_flight
      || inject_overbudget || metrics_every <> None || common.stats_json <> None
      || ops_listen <> None
      (* auto-routing reads the cost store's latency EWMAs, so the
         adaptive optimizer always rides with telemetry *)
      || strategy_mode = `Auto
    in
    let store =
      if telemetry_on then
        Some (Telemetry.Cost_store.create ~threshold:residual_threshold ())
      else None
    in
    let recorder =
      if telemetry_on then Some (Telemetry.Flight_recorder.create ()) else None
    in
    let optimizer =
      match strategy_mode with
      | `Auto -> Some (Optimizer.create ?store ())
      | `Default | `Fixed _ -> None
    in
    let snapshots = ref 0 in
    (* one publisher feeds every exposition: the --metrics-out file and
       the HTTP /metrics endpoint render the identical snapshot *)
    let publisher =
      if ops_listen <> None || metrics_out <> None then Some (ops_publisher ())
      else None
    in
    let live_cache : Serve.Plan_cache.t option ref = ref None in
    let live_gauges () =
      let g = Obs.Openmetrics.gauge in
      (match !live_cache with
      | Some c ->
        let st = Serve.Plan_cache.stats c in
        [
          g ~help:"Plans currently cached." "serve_plan_cache_size"
            (float_of_int st.Serve.Plan_cache.size);
          g ~help:"Plan-cache capacity." "serve_plan_cache_capacity"
            (float_of_int st.Serve.Plan_cache.capacity);
        ]
      | None -> [])
      @ (match optimizer with
        | Some o ->
          let os = Optimizer.stats o in
          [
            g ~help:"Query shapes tracked by the adaptive optimizer."
              "serve_optimizer_entries" (float_of_int os.Optimizer.entries);
            g ~help:"Query shapes whose strategy choice has converged."
              "serve_optimizer_converged" (float_of_int os.Optimizer.converged);
          ]
        | None -> [])
      @ [ g ~help:"Serving domains (work-stealing pool size)." "serve_domains"
            (float_of_int domains) ]
    in
    let live_status () =
      [
        ("domains", string_of_int domains);
        ("workload", workload);
        ("strategy", strategy);
      ]
      @ (match !live_cache with
        | Some c ->
          let st = Serve.Plan_cache.stats c in
          let looked = st.Serve.Plan_cache.hits + st.Serve.Plan_cache.misses in
          [
            ( "cache",
              Printf.sprintf "%d/%d entries, %.1f%% hit rate"
                st.Serve.Plan_cache.size st.Serve.Plan_cache.capacity
                (100.0 *. float_of_int st.Serve.Plan_cache.hits
                /. float_of_int (max 1 looked)) );
          ]
        | None -> [])
      @
      match optimizer with
      | Some o ->
        let os = Optimizer.stats o in
        [
          ( "optimizer",
            Printf.sprintf "%d shapes, %d converged" os.Optimizer.entries
              os.Optimizer.converged );
        ]
      | None -> []
    in
    let publish ?report () =
      match publisher with
      | None -> None
      | Some p ->
        Some
          (Opsplane.Snapshot.publish ?report ?telemetry:store ?recorder
             ~gauges:(live_gauges ()) ~status:(live_status ()) p)
    in
    let write_metrics report =
      match (publish ~report (), publisher, metrics_out) with
      | Some snap, Some p, Some path ->
        Obs.Json.write_raw path (Opsplane.Snapshot.to_openmetrics p snap)
      | _ -> ()
    in
    (* --stats-json carries the cost store, the optimizer's table and a
       digest of the flight recorder (whose entries go to --flight-out) *)
    let augment j =
      let flight r =
        let module FR = Telemetry.Flight_recorder in
        let num n = Obs.Json.Num (float_of_int n) in
        Obs.Json.Obj
          ([
             ("capacity", num (FR.capacity r));
             ("recorded", num (FR.length r));
             ("total", num (FR.total r));
           ]
          @
          match FR.triggered r with
          | None -> []
          | Some t -> [ ("trigger", Obs.Json.Str t); ("trigger_count", num (FR.trigger_count r)) ])
      in
      let members =
        (match store with
        | Some s when not (Telemetry.Cost_store.is_empty s) ->
          [ ("telemetry", Telemetry.Cost_store.to_json s) ]
        | _ -> [])
        @ (match optimizer with Some o -> [ ("optimizer", Optimizer.to_json o) ] | None -> [])
        @ match recorder with Some r -> [ ("flight", flight r) ] | None -> []
      in
      match j with Obs.Json.Obj kvs -> Obs.Json.Obj (kvs @ members) | _ -> j
    in
    (* ops scrapes want fresh snapshots even without --metrics-every:
       default a 1s publication cadence when only --ops-listen is given *)
    let tick_every =
      match metrics_every with
      | Some e -> Some e
      | None -> if ops_listen <> None then Some 1.0 else None
    in
    let listener =
      match (ops_listen, publisher) with
      | Some port, Some p ->
        (* publish seq 1 before any request so /readyz flips and early
           scrapes see the build identity over an empty report *)
        ignore (publish ());
        Some (start_ops_listener ~publisher:p port)
      | _ -> None
    in
    let run_and_report () =
    let doc, stats =
      observe
        ~extra:(metrics_out <> None || telemetry_on)
        ~augment ~emit:write_metrics common
        (fun () ->
          let doc =
            Obs.Span.with_ "load-document" (fun () ->
                load_document ~xml_file ~xml ~random ~xmark ~seed:common.seed)
          in
          let rng = Random.State.make [| common.seed; 0xda7a |] in
          let shapes = Serve.Workload.shapes ~rng ~count:shapes in
          let reqs =
            (* wall-clock runs use the seed-split stream so the request
               sequence is a pure function of the seed — replayable
               against any --domains count; the virtual-time twin keeps
               the original sequentially threaded stream bit-for-bit *)
            if wall_clock then
              Serve.Workload.requests_split ~seed:common.seed
                ~shapes:(Array.length shapes) ~count:requests kind
            else
              Serve.Workload.requests ~rng ~shapes:(Array.length shapes)
                ~count:requests kind
          in
          let cache =
            if cache_size > 0 then
              Some (Serve.Plan_cache.create ~capacity:cache_size ?ttl ())
            else None
          in
          live_cache := cache;
          let pool =
            if domains > 1 then Some (Serve.Pool.create ~domains ()) else None
          in
          (* publish the tree before worker domains read it: force the
             lazy label index and BFLR order on this domain *)
          if pool <> None then Tree.seal doc;
          let cfg =
            Serve.Server.config ?cache ~concurrency ~share:batch
              ~stream_prefilter
              ?deadline:(Option.map (fun ms -> ms /. 1000.0) deadline_ms)
              ?telemetry:store ?recorder ?optimizer
              ?force_strategy:
                (match strategy_mode with `Fixed s -> Some s | _ -> None)
              ~inject_overbudget
              ?tick_every
              ?on_tick:
                (Option.map
                   (fun _ _i _vt ->
                     incr snapshots;
                     write_metrics (Obs.Report.capture ()))
                   tick_every)
              ?pool ~wall_clock
              ?sleep:(if wall_clock then Some Unix.sleepf else None)
              ()
          in
          Fun.protect
            ~finally:(fun () -> Option.iter Serve.Pool.shutdown pool)
            (fun () -> (doc, Serve.Server.run cfg doc shapes reqs)))
    in
    Printf.printf "document:    %d nodes, depth %d\n" (Tree.size doc)
      (Tree.height doc);
    if domains > 1 || wall_clock then
      Printf.printf "domains:     %d%s\n" domains
        (if wall_clock then " (wall-clock)" else "");
    (match strategy_mode with
    | `Fixed s -> Printf.printf "strategy:    %s (pinned)\n" (Engine.strategy_name s)
    | `Default | `Auto -> ());
    print_string (Serve.Server.to_text ?telemetry:store stats);
    (* the adaptive run's routing summary: per-fingerprint convergence
       and the strategies it settled on *)
    (match optimizer with
    | None -> ()
    | Some o ->
      let os = Optimizer.stats o in
      Printf.printf
        "optimizer:   %d shapes, %d converged, %d decisions (%d exploratory)\n"
        os.Optimizer.entries os.Optimizer.converged os.Optimizer.decisions
        os.Optimizer.explorations;
      let settled =
        List.filter_map
          (fun (r : Optimizer.entry_report) ->
            match r.Optimizer.r_choice with
            | Some c when r.Optimizer.r_converged ->
              Some (r.Optimizer.r_fingerprint, c)
            | _ -> None)
          (Optimizer.report o)
      in
      List.iteri
        (fun i (fp, c) ->
          if i < 8 then Printf.printf "  %-28s -> %s\n" fp c)
        settled;
      if List.length settled > 8 then
        Printf.printf "  ... and %d more (see --stats-json)\n"
          (List.length settled - 8));
    if metrics_every <> None then
      Printf.printf "metrics:     %d periodic snapshots (every %gs virtual)\n"
        !snapshots
        (Option.get metrics_every);
    (* dump the ring buffer when something went wrong (or on demand) *)
    (match recorder with
    | Some r -> (
      let trigger = Telemetry.Flight_recorder.triggered r in
      match (flight_out, dump_flight || trigger <> None) with
      | Some path, true ->
        Obs.Json.write_file path (Telemetry.Flight_recorder.to_json r);
        Printf.printf "flight:      dumped %d entries to %s (trigger: %s)\n"
          (Telemetry.Flight_recorder.length r)
          path
          (Option.value ~default:"on-demand" trigger)
      | Some path, false ->
        Printf.printf "flight:      no trigger fired; %s not written\n" path
      | None, _ -> ())
    | None -> ());
    if stats.Serve.Server.errors > 0 then
      `Error (false, Printf.sprintf "%d requests failed" stats.Serve.Server.errors)
    else `Ok ()
    in
    (match listener with
    | None -> run_and_report ()
    | Some l ->
      Fun.protect ~finally:(fun () -> Opsplane.Listener.stop l) run_and_report)
  in
  let requests_arg =
    Arg.(value & opt int 1000 & info [ "requests" ] ~docv:"N" ~doc:"Number of requests to serve.")
  in
  let concurrency_arg =
    Arg.(value & opt int 1 & info [ "concurrency" ] ~docv:"N" ~doc:"Requests admitted (in flight) together.")
  in
  let shapes_arg =
    Arg.(value & opt int 100 & info [ "shapes" ] ~docv:"N" ~doc:"Distinct query shapes in the workload.")
  in
  let cache_size_arg =
    Arg.(value & opt int 128 & info [ "cache-size" ] ~docv:"N" ~doc:"Plan-cache capacity; 0 disables caching.")
  in
  let ttl_arg =
    Arg.(value & opt (some float) None & info [ "ttl" ] ~docv:"SECONDS" ~doc:"Plan-cache entry time-to-live.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline; enables admission control (reject \"degraded: naive bound exceeded\") and open-loop shedding.")
  in
  let batch_arg =
    Arg.(value & flag & info [ "batch" ] ~doc:"Share work across in-flight requests (plan dedup, grouped label seed scans).")
  in
  let stream_prefilter_arg =
    Arg.(value & flag & info [ "stream-prefilter" ] ~doc:"With --batch: decide the streamable queries of each in-flight group in one SAX pass, short-circuiting non-matching ones to empty answers (pays off when evaluations are expensive or answers are discarded).")
  in
  let workload_arg =
    Arg.(value & opt string "closed" & info [ "workload" ] ~docv:"KIND" ~doc:"\"closed\" (next request after the previous answer) or \"open:<rate>\" (fixed arrival rate in requests/s).")
  in
  let domains_arg =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Execute each chunk's admitted requests in parallel on $(docv) OCaml domains (a work-stealing pool; the calling domain participates). 1 keeps the sequential loop.")
  in
  let wall_clock_arg =
    Arg.(value & flag & info [ "wall-clock" ] ~doc:"Honour open-loop arrival times in real time (sleeping between arrivals) instead of the deterministic virtual clock, and draw the request stream by seed-splitting so it is identical for every --domains count.")
  in
  let strategy_arg =
    Arg.(value & opt string "default" & info [ "strategy" ] ~docv:"MODE" ~doc:"\"default\" uses the planner's static pick per query; \"auto\" routes each shape through the adaptive optimizer (seeded cost estimates; each plausible strategy observed twice, then the lowest observed latency), whose per-shape table --stats-json reports under \"optimizer\"; a strategy name (e.g. \"bottom-up-xpath\") pins every shape that strategy can evaluate.")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Write an OpenMetrics text exposition of the run's counters, latency histograms and per-fingerprint latency summaries to $(docv).")
  in
  let metrics_every_arg =
    Arg.(value & opt (some float) None & info [ "metrics-every" ] ~docv:"SECONDS" ~doc:"With --metrics-out: overwrite the exposition every $(docv) seconds of virtual serving time (deterministic under the discrete-event clock), not just once at end of run.")
  in
  let residual_threshold_arg =
    Arg.(value & opt float 1.0 & info [ "residual-threshold" ] ~docv:"RATIO" ~doc:"Observed/predicted cost ratio above which a served request counts as a residual violation (and triggers the flight recorder).")
  in
  let flight_out_arg =
    Arg.(value & opt (some string) None & info [ "flight-out" ] ~docv:"FILE" ~doc:"Dump the flight recorder (ring buffer of recent request profiles) to $(docv) when a shed/degrade/residual-violation trigger fired during the run, or unconditionally with --dump-flight.")
  in
  let dump_flight_arg =
    Arg.(value & flag & info [ "dump-flight" ] ~doc:"Write the flight-recorder dump even when no trigger fired.")
  in
  let inject_overbudget_arg =
    Arg.(value & flag & info [ "inject-overbudget" ] ~doc:"Fault injection: burn un-priced counter work inside every served plan's execution (each request, or each distinct plan with --batch) so its observed cost exceeds its price; the run must then trip the residual gate (used by the telemetry smoke tests).")
  in
  let ops_listen_arg =
    Arg.(value & opt (some int) None & info [ "ops-listen" ] ~docv:"PORT" ~doc:"Serve the live ops plane on http://127.0.0.1:$(docv) for the duration of the run: /metrics (OpenMetrics), /healthz, /readyz, /statusz, /tracez and /flightz, fed by lock-free snapshots published on the --metrics-every cadence (default 1s). 0 binds an ephemeral port (printed at startup).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a query workload against one document through the plan cache and batch executor")
    Term.(
      ret
        (const run $ xml_file_arg $ xml_arg $ random_arg $ xmark_arg
       $ requests_arg $ concurrency_arg $ shapes_arg $ cache_size_arg
       $ ttl_arg $ deadline_arg $ batch_arg $ stream_prefilter_arg
       $ workload_arg $ domains_arg $ wall_clock_arg $ strategy_arg
       $ metrics_out_arg $ metrics_every_arg
       $ residual_threshold_arg $ flight_out_arg
       $ dump_flight_arg $ inject_overbudget_arg $ ops_listen_arg
       $ common_term))

(* ------------------------------------------------------------------ *)
(* subscribe: the serving model inverted — a churning population of
   registered standing queries, a stream of generated documents, one SAX
   pass per document through the shared Subscribe.Index *)

let subscribe_cmd =
  let run registrations docs churn scale domains one_at_a_time ops_listen
      common =
    handle_errors @@ fun () ->
    if registrations < 1 then failwith "--registrations must be >= 1";
    if docs < 1 then failwith "--docs must be >= 1";
    if churn < 0.0 || churn >= 1.0 then failwith "--churn must be in [0, 1)";
    if domains < 1 then failwith "--domains must be >= 1";
    let pool =
      if domains > 1 then Some (Serve.Pool.create ~domains ()) else None
    in
    let summary = ref None in
    let augment j =
      match (!summary, j) with
      | Some s, Obs.Json.Obj kvs ->
        Obs.Json.Obj (kvs @ [ ("subscribe", Serve.Ingest.summary_json s) ])
      | _ -> j
    in
    let publisher = Option.map (fun _ -> ops_publisher ()) ops_listen in
    (* publish from the ingest loop's on_chunk hook, rate-limited so a
       small-document run doesn't spend its time freezing reports *)
    let last_pub = ref neg_infinity in
    let publish ?(force = false) ~docs_done ~fired () =
      match publisher with
      | None -> ()
      | Some p ->
        let now = Unix.gettimeofday () in
        if force || now -. !last_pub >= 0.25 then begin
          last_pub := now;
          ignore
            (Opsplane.Snapshot.publish
               ~gauges:
                 [
                   Obs.Openmetrics.gauge ~help:"Documents matched so far."
                     "subscribe_docs_matched" (float_of_int docs_done);
                   Obs.Openmetrics.gauge
                     ~help:"Subscription firings so far." "subscribe_fired"
                     (float_of_int fired);
                 ]
               ~status:
                 [
                   ("domains", string_of_int domains);
                   ("registrations", string_of_int registrations);
                   ("docs", Printf.sprintf "%d/%d matched" docs_done docs);
                   ("fired", string_of_int fired);
                 ]
               p)
        end
    in
    let listener =
      match (ops_listen, publisher) with
      | Some port, Some p ->
        publish ~force:true ~docs_done:0 ~fired:0 ();
        Some (start_ops_listener ~publisher:p port)
      | _ -> None
    in
    let s =
      observe ~extra:(ops_listen <> None) ~augment common (fun () ->
          Fun.protect
            ~finally:(fun () -> Option.iter Serve.Pool.shutdown pool)
            (fun () ->
              let s =
                Serve.Ingest.run
                  {
                    Serve.Ingest.seed = common.seed;
                    registrations;
                    docs;
                    churn;
                    scale;
                    pool;
                    one_at_a_time;
                    on_chunk =
                      (match publisher with
                      | Some _ ->
                        Some (fun d f -> publish ~docs_done:d ~fired:f ())
                      | None -> None);
                  }
              in
              summary := Some s;
              s))
    in
    publish ~force:true ~docs_done:s.Serve.Ingest.docs_matched
      ~fired:s.Serve.Ingest.fired_total ();
    Option.iter Opsplane.Listener.stop listener;
    let open Serve.Ingest in
    Printf.printf "registrations: %d events (%d register, %d unregister, %d live)\n"
      s.events s.registered s.unregistered s.live;
    Printf.printf "index:       %d entries (dedup %d ids), %d trie states%s\n"
      s.entries s.live s.trie_states
      (if one_at_a_time then " [one-at-a-time twin]" else "");
    List.iter
      (fun (cls, n) -> if n > 0 then Printf.printf "  class %-10s %d\n" cls n)
      s.class_counts;
    if domains > 1 then Printf.printf "domains:     %d\n" domains;
    Printf.printf "documents:   %d matched (xmark scale %d)\n" s.docs_matched scale;
    Printf.printf "fired:       %d subscription firings (%.1f per doc)\n"
      s.fired_total
      (float_of_int s.fired_total /. float_of_int (max 1 s.docs_matched));
    if not one_at_a_time then
      Printf.printf "active work: %d trie state activations (%.1f per doc)\n"
        s.active_work
        (float_of_int s.active_work /. float_of_int (max 1 s.docs_matched));
    Printf.printf "elapsed:     %.3fs\n" s.elapsed;
    `Ok ()
  in
  let registrations_arg =
    Arg.(value & opt int 1000 & info [ "registrations" ] ~docv:"N" ~doc:"Length of the registration event stream (register/unregister events; the live population is about $(docv)·(1-churn)).")
  in
  let docs_arg =
    Arg.(value & opt int 100 & info [ "docs" ] ~docv:"M" ~doc:"Number of generated documents streamed past the index.")
  in
  let churn_arg =
    Arg.(value & opt float 0.0 & info [ "churn" ] ~docv:"R" ~doc:"Probability in [0,1) that a registration event is an unregistration of an earlier subscription; with $(docv) > 0 the event stream is interleaved between document chunks (mid-stream churn).")
  in
  let scale_arg =
    Arg.(value & opt int 2 & info [ "scale" ] ~docv:"SCALE" ~doc:"XMark scale of each generated document (about 36·$(docv) nodes).")
  in
  let domains_arg =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Match each chunk of documents in parallel on $(docv) OCaml domains, one index session per slot; 1 keeps the sequential loop.")
  in
  let one_at_a_time_arg =
    Arg.(value & flag & info [ "one-at-a-time" ] ~doc:"Differential twin: evaluate every live registration's compiled plan against each document instead of the shared index (same fired counts, per-document cost proportional to registrations).")
  in
  let ops_listen_arg =
    Arg.(value & opt (some int) None & info [ "ops-listen" ] ~docv:"PORT" ~doc:"Serve the live ops plane on http://127.0.0.1:$(docv) for the duration of the run (snapshots published per matched document chunk). 0 binds an ephemeral port.")
  in
  Cmd.v
    (Cmd.info "subscribe"
       ~doc:"Stream generated documents past a churning population of registered standing queries (pub/sub matching through the shared subscription index)")
    Term.(
      ret
        (const run $ registrations_arg $ docs_arg $ churn_arg $ scale_arg
       $ domains_arg $ one_at_a_time_arg $ ops_listen_arg $ common_term))

let check_cmd =
  let run cases from max_nodes oracle_names list_oracles inject failures_out common =
    handle_errors @@ fun () ->
    if list_oracles then begin
      List.iter
        (fun (o : Check.Oracles.t) ->
          Printf.printf "%-18s %s\n" o.name o.theorem)
        Check.Oracles.all;
      `Ok ()
    end
    else begin
      let named =
        match oracle_names with
        | [] -> Check.Oracles.all
        | names ->
          List.map
            (fun n ->
              match Check.Oracles.find n with
              | Some o -> o
              | None when n = Check.Fault.oracle.Check.Oracles.name ->
                Check.Fault.oracle
              | None when n = Check.Fault.control.Check.Oracles.name ->
                Check.Fault.control
              | None ->
                failwith
                  (Printf.sprintf "unknown oracle %s (try --list-oracles)" n))
            names
      in
      let oracles = if inject then named @ [ Check.Fault.oracle ] else named in
      let cfg =
        {
          Check.Runner.default with
          seed = common.seed;
          cases;
          from;
          max_nodes;
          oracles;
        }
      in
      let stats = observe common (fun () -> Check.Runner.run cfg) in
      print_string (Check.Runner.to_text stats);
      (match failures_out with
      | None -> ()
      | Some path ->
        Obs.Json.write_raw path
          (String.concat ""
             (List.map
                (fun (d : Check.Runner.discrepancy) ->
                  Printf.sprintf
                    "treequery check --seed %d --from %d --cases 1 --oracles %s\n"
                    d.seed d.case_index d.oracle_name)
                stats.Check.Runner.discrepancies)));
      if Check.Runner.discrepancy_count stats = 0 then `Ok ()
      else `Error (false, "differential check found discrepancies")
    end
  in
  let cases_arg =
    Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc:"Number of case indices to run per oracle.")
  in
  let from_arg =
    Arg.(value & opt int 0 & info [ "from" ] ~docv:"K" ~doc:"First case index (repro lines use this to replay one case).")
  in
  let max_nodes_arg =
    Arg.(value & opt int 40 & info [ "max-nodes" ] ~docv:"N" ~doc:"Tree-size ceiling (per-oracle caps still apply below it).")
  in
  let oracles_arg =
    Arg.(value & opt_all string [] & info [ "oracles" ] ~docv:"NAME" ~doc:"Run only these oracles (repeatable; default: the full registry).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list-oracles" ] ~doc:"List registered oracles and the theorems they guard, then exit.")
  in
  let inject_arg =
    Arg.(value & flag & info [ "inject" ] ~doc:"Also run the fault-injection oracle (a deliberately broken intersection kernel); the run is then expected to fail.")
  in
  let failures_out_arg =
    Arg.(value & opt (some string) None & info [ "failures-out" ] ~docv:"FILE" ~doc:"Write one replay command line per discrepancy to $(docv) (for CI artifacts).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Cross-check every engine against its independent twin on random cases")
    Term.(
      ret
        (const run $ cases_arg $ from_arg $ max_nodes_arg $ oracles_arg
       $ list_arg $ inject_arg $ failures_out_arg $ common_term))

let attest_cmd =
  let run tolerance out inject list_bounds common =
    handle_errors @@ fun () ->
    if list_bounds then begin
      List.iter
        (fun (b : Obs.Bound.t) ->
          Printf.printf "%-24s %-24s vs %-18s <= n^%.1f  %s\n" b.Obs.Bound.id
            b.Obs.Bound.counter b.Obs.Bound.term b.Obs.Bound.exponent
            b.Obs.Bound.claim)
        (Obs.Bound.all ());
      `Ok ()
    end
    else begin
      let outcomes =
        observe common (fun () -> Attest.run ~inject ~seed:common.seed ~tolerance ())
      in
      print_string (Attest.to_text outcomes);
      Option.iter
        (fun out ->
          Obs.Json.write_file out (Attest.to_json ~seed:common.seed ~tolerance outcomes);
          Printf.printf "report written to %s\n" out)
        out;
      if Attest.all_ok outcomes then `Ok ()
      else `Error (false, "a fitted slope exceeds its claimed exponent or a point its cap")
    end
  in
  let tolerance_arg =
    Arg.(value & opt float 0.15 & info [ "tolerance" ] ~docv:"T" ~doc:"Slack added to each claimed exponent before a fitted slope counts as a violation.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Write the attestation report to $(docv) (default: no report).")
  in
  let inject_arg =
    Arg.(value & flag & info [ "inject" ] ~doc:"Also sweep a deliberately superlinear fault counter and an optimizer routed to its worst arm; the run is then expected to fail.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list-bounds" ] ~doc:"List the registered complexity bounds and the claims they attest, then exit.")
  in
  Cmd.v
    (Cmd.info "attest"
       ~doc:"Fit scaling sweeps against the paper's complexity claims and fail on a superlinear regression")
    Term.(ret (const run $ tolerance_arg $ out_arg $ inject_arg $ list_arg $ common_term))

let generate_cmd =
  let run random xmark common =
    handle_errors @@ fun () ->
    let doc =
      load_document ~xml_file:None ~xml:None ~random ~xmark ~seed:common.seed
    in
    print_endline (Treekit.Xml.to_string doc);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit a synthetic XML document")
    Term.(ret (const run $ random_arg $ xmark_arg $ common_term))

let () =
  let doc = "process queries on tree-structured data efficiently" in
  let info = Cmd.info "treequery" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            eval_cmd; explain_cmd; filter_cmd; serve_cmd; subscribe_cmd;
            generate_cmd; check_cmd; attest_cmd;
          ]))
