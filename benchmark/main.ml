(* The system benchmark.

   One run:   main.exe --workload W --seed N --seconds S --trace 0|1
              [--trace-file FILE] [--quick]
   prints the input digest, every metric by name with its unit, the
   untraced metrics as measured (not scaled to the reference host) on a
   "raw:" line, and as its last line one JSON object
   {correct, attempted, failed, metrics}.
   --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
   ones (from spans around each layer call, Obs counters and isolated
   probes); --trace-file also writes the spans as Chrome trace-event
   JSON.  It exits non-zero when an op failed or an answer was wrong.

   A suite:   main.exe --suite --reps R --seconds S [--seed N] [--out FILE]
              [--trace-dir DIR] [--quick]
   runs every (workload, repetition) in a fresh process, repetitions
   interleaved across workloads, and reports each metric's median and
   quartiles.

   Compare:   main.exe --compare BASE.json NEW.json
   gives one verdict per (metric, workload) from two suite files, by
   the bounds in ./BENCHMARK.json, on the scaled times checked against
   the measured ones. *)

let workloads =
  [
    ("serve-eval", fun ~quick -> Serve_wl.run (if quick then Serve_wl.quick Serve_wl.eval else Serve_wl.eval));
    ("serve-adaptive", fun ~quick -> Serve_wl.run (if quick then Serve_wl.quick Serve_wl.adaptive else Serve_wl.adaptive));
    ("subscribe-twig", fun ~quick -> Subscribe_wl.run (if quick then Subscribe_wl.quick Subscribe_wl.twig else Subscribe_wl.twig));
    ("subscribe-churn", fun ~quick -> Subscribe_wl.run (if quick then Subscribe_wl.quick Subscribe_wl.churn else Subscribe_wl.churn));
  ]

let end_to_end =
  [
    ("setup_s", "s"); ("ops_per_s", "ops/s"); ("lat_p50_ms", "ms"); ("lat_p99_ms", "ms");
    ("minor_words_per_op", "words"); ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("treekit.parse_us_per_doc", "us"); ("treekit.nodes_visited_per_op", "count");
    ("treequery.parse_us_per_op", "us"); ("treequery.prepare_us_per_miss", "us");
    ("plan_cache.hit_ratio", "ratio"); ("plan_cache.evictions_per_kop", "1/kop");
    ("plan_cache.find_us_per_op", "us"); ("optimizer.explorations_per_kop", "1/kop");
    ("optimizer.converged_frac", "ratio"); ("eval.us_per_op", "us"); ("eval.share", "ratio");
    ("cqtree.tuples_materialised_per_op", "count"); ("serve.batch_dedup_ratio", "ratio");
    ("serve.group_size_mean", "count"); ("serve.run_self_us_per_op", "us");
    ("pool.efficiency", "ratio"); ("telemetry.flight_entries_per_op", "count");
    ("telemetry.residual_violations_per_kop", "1/kop"); ("obs.retained_spans_per_op", "count");
    ("opsplane.publish_ms", "ms"); ("opsplane.publish_words", "words");
    ("subscribe.match_us_per_doc", "us"); ("subscribe.class_spine_us_per_doc", "us");
    ("subscribe.class_twig_us_per_doc", "us"); ("subscribe.class_general_us_per_doc", "us");
    ("subscribe.register_us", "us"); ("subscribe.unregister_us", "us");
    ("subscribe.trie_active_work_per_doc", "count"); ("subscribe.fired_per_doc", "count");
    ("subscribe.entries", "count"); ("subscribe.trie_states", "count");
    ("runtime.minor_gcs_per_kop", "1/kop"); ("runtime.major_gcs_per_kop", "1/kop");
    ("loadgen.late_p99_ms", "ms"); ("loadgen.late_max_ms", "ms");
    ("loadgen.trace_overhead_frac", "ratio"); ("trace.self_sum_err_max", "ratio");
  ]

(* JSON has no infinity: a latency that includes a failed op is
   reported as this many milliseconds, and the run is incorrect anyway *)
let finite v = if Float.is_finite v then v else 1e9

let json_number v = Printf.sprintf "%.17g" (finite v)

let run_one ~workload ~seed ~seconds ~trace ~trace_file ~quick =
  let run =
    match List.assoc_opt workload workloads with
    | Some r -> r ~quick
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  Printf.printf "benchmark: workload=%s seed=%d seconds=%g trace=%b%s\n%!" workload seed seconds trace
    (if quick then " quick" else "");
  let o = run ~seed ~seconds ~trace ~trace_file in
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) o.Outcome.info;
  let table = if trace then per_layer else end_to_end in
  let produced = if trace then o.Outcome.layers else o.Outcome.e2e in
  let metrics =
    List.map
      (fun (name, unit) ->
        (* a layer the workload does not use reports 0 *)
        let v = Option.value ~default:(if trace then 0.0 else nan) (List.assoc_opt name produced) in
        Printf.printf "%s = %s %s\n" name (json_number v) unit;
        (name, unit, v))
      table
  in
  let correct = o.Outcome.failed = 0 && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  Printf.printf "fail_frac = %s 1\n" (json_number (float_of_int o.Outcome.failed /. float_of_int (max 1 o.Outcome.attempted)));
  if o.Outcome.raw <> [] then
    Printf.printf "raw: %s\n"
      (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (json_number v)) o.Outcome.raw));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    o.Outcome.attempted o.Outcome.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Suites and comparisons                                              *)

let num = function Obs.Json.Num f -> f | _ -> failwith "expected a number"

let member k j =
  match Obs.Json.member k j with Some v -> v | None -> failwith ("missing member " ^ k)

(* The values of a "raw: k=v k=v" line. *)
let raw_values line =
  List.filter_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i -> Some (String.sub kv 0 i, float_of_string (String.sub kv (i + 1) (String.length kv - i - 1)))
      | None -> None)
    (String.split_on_char ' ' line)

(* Run one (workload, seed) in a fresh process: its result line and its
   measured values, or [None] when it failed. *)
let child args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let last = ref "" and raw = ref [] in
  (try
     while true do
       last := input_line ic;
       match String.split_on_char ':' !last with
       | "raw" :: rest -> raw := raw_values (String.concat ":" rest)
       | _ -> ()
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some (Obs.Json.of_string !last, !raw)
  | _ ->
    Printf.eprintf "run failed: %s\n%!" (String.concat " " args);
    None

(* The median, quartiles and values of one metric over a suite's runs,
   printed as a line of the summary. *)
let summary_of ~label name unit values =
  let q1, med, q3 = Loop.quartiles values in
  Printf.printf "  %-38s %14.6g %-6s q1 %-12.6g q3 %-12.6g spread %.3f%s\n" name med unit q1 q3
    (if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med)
    label;
  ( name,
    Obs.Json.Obj
      [
        ("unit", Obs.Json.Str unit); ("median", Obs.Json.Num med); ("q1", Obs.Json.Num q1); ("q3", Obs.Json.Num q3);
        ("values", Obs.Json.Arr (Array.to_list (Array.map (fun v -> Obs.Json.Num v) values)));
      ] )

let suite ~reps ~seconds ~seed ~out ~trace_dir ~quick =
  let names = List.map fst workloads in
  let results = Hashtbl.create 16 in
  let ok = ref true in
  let common w s =
    [ "--workload"; w; "--seed"; string_of_int s; "--seconds"; Printf.sprintf "%g" seconds ]
    @ if quick then [ "--quick" ] else []
  in
  let keep = function
    | Some j -> [ j ]
    | None ->
      ok := false;
      []
  in
  for r = 0 to reps - 1 do
    List.iter
      (fun w ->
        Printf.eprintf "rep %d/%d %s\n%!" (r + 1) reps w;
        List.iter (Hashtbl.add results w) (keep (child (common w (seed + r) @ [ "--trace"; "0" ]))))
      names
  done;
  let traced =
    match trace_dir with
    | None -> []
    | Some dir ->
      List.concat_map
        (fun w ->
          List.map
            (fun j -> (w, j))
            (keep (child (common w seed @ [ "--trace"; "1"; "--trace-file"; Filename.concat dir (w ^ ".trace.json") ]))))
        names
  in
  let summarise w runs table =
    let jsons = List.map fst runs in
    let attempted = List.fold_left (fun a j -> a +. num (member "attempted" j)) 0.0 jsons in
    let failed = List.fold_left (fun a j -> a +. num (member "failed" j)) 0.0 jsons in
    if failed > 0.0 || List.exists (fun j -> member "correct" j <> Obs.Json.Bool true) jsons then ok := false;
    Printf.printf "\n%s (%d runs, fail_frac %g)\n" w (List.length runs) (failed /. Float.max attempted 1.0);
    let metrics =
      List.map
        (fun (name, unit) ->
          summary_of ~label:"" name unit
            (Array.of_list (List.map (fun j -> num (member "value" (member name (member "metrics" j)))) jsons)))
        table
    in
    (* the measured times, and the gauge, where the runs report them *)
    let raw =
      match List.map snd runs with
      | first :: _ as raws when first <> [] ->
        List.map
          (fun (name, _) ->
            let unit = Option.value ~default:"ms" (List.assoc_opt name table) in
            summary_of ~label:" (as measured)" name unit
              (Array.of_list (List.map (fun r -> Option.value ~default:nan (List.assoc_opt name r)) raws)))
          first
      | _ -> []
    in
    Obs.Json.Obj
      [
        ("attempted", Obs.Json.Num attempted); ("failed", Obs.Json.Num failed);
        ("fail_frac", Obs.Json.Num (failed /. Float.max attempted 1.0)); ("metrics", Obs.Json.Obj metrics);
        ("raw", Obs.Json.Obj raw);
      ]
  in
  let untraced = List.map (fun w -> (w, summarise w (List.rev (Hashtbl.find_all results w)) end_to_end)) names in
  let traced = List.map (fun (w, j) -> (w, summarise w [ j ] per_layer)) traced in
  let doc =
    Obs.Json.Obj
      [
        ("seconds", Obs.Json.Num seconds); ("reps", Obs.Json.Num (float_of_int reps));
        ("workloads", Obs.Json.Obj untraced); ("traced", Obs.Json.Obj traced);
      ]
  in
  Option.iter (fun path -> Obs.Json.write_file path doc) out;
  if not !ok then exit 1

(* The verdict on one metric of one workload, from the [base] and [fresh]
   suites' summaries of it.  A metric whose relative spread (quartile
   distance over median, on either side) exceeds its bound is
   unresolved, unless every new run beats every base run; otherwise it
   regressed when the new median is worse by more than the bound, and
   improved when it is better by more than the base runs' own spread.
   Returns the verdict, the relative change (positive = worse) and the
   two spreads. *)
let verdict ~lower ~bound base fresh =
  let stat j k = num (member k j) in
  let values j = match member "values" j with Obs.Json.Arr l -> List.map num l | _ -> [] in
  let spread j =
    let m = stat j "median" in
    if m = 0.0 then 0.0 else (stat j "q3" -. stat j "q1") /. Float.abs m
  in
  let bm = stat base "median" and nm = stat fresh "median" in
  let worse = (if lower then nm -. bm else bm -. nm) /. Float.abs (if bm = 0.0 then 1.0 else bm) in
  let better_all =
    let bv = values base and nv = values fresh in
    bv <> [] && nv <> []
    &&
    if lower then List.fold_left Float.max neg_infinity nv < List.fold_left Float.min infinity bv
    else List.fold_left Float.min infinity nv > List.fold_left Float.max neg_infinity bv
  in
  let v =
    if Float.max (spread base) (spread fresh) > bound then if better_all then "improved" else "unresolved"
    else if worse > bound then "regressed"
    else if -.worse > spread base then "improved"
    else "unchanged"
  in
  (v, worse, spread base, spread fresh)

(* One verdict per (metric, workload), on the times scaled to the
   reference host.  The same verdict is taken on the times as measured:
   scaling could cancel a real change if the program moved the gauge
   (see [Host]), so where the measured verdict is a different resolved
   one, the pair is unresolved.  Measured times too noisy to resolve do
   not overrule the scaled ones; non-time metrics are the same in both. *)
let compare_files base_path new_path =
  let read path = Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let spec = read "BENCHMARK.json" and base = read base_path and fresh = read new_path in
  let metrics =
    match member "end_to_end" spec with
    | Obs.Json.Arr l ->
      List.map
        (fun m ->
          match (member "name" m, member "better" m, member "bound" m) with
          | Obs.Json.Str n, Obs.Json.Str b, Obs.Json.Num bound -> (n, b = "lower", bound)
          | _ -> failwith "malformed end_to_end entry")
        l
    | _ -> failwith "end_to_end must be a list"
  in
  let flagged = ref false in
  let workloads_of j = match member "workloads" j with Obs.Json.Obj l -> l | _ -> [] in
  let raw_of j name = Option.bind (Obs.Json.member "raw" j) (Obs.Json.member name) in
  List.iter
    (fun (w, b) ->
      match List.assoc_opt w (workloads_of fresh) with
      | None -> Printf.printf "%-16s missing from %s\n" w new_path
      | Some n ->
        List.iter
          (fun (name, lower, bound) ->
            let scaled, worse, sb, sn =
              verdict ~lower ~bound (member name (member "metrics" b)) (member name (member "metrics" n))
            in
            let measured =
              match (raw_of b name, raw_of n name) with
              | Some rb, Some rn ->
                let v, _, _, _ = verdict ~lower ~bound rb rn in
                v
              | _ -> scaled
            in
            let final = if measured = scaled || measured = "unresolved" then scaled else "unresolved" in
            if final = "regressed" || final = "unresolved" then flagged := true;
            Printf.printf "%-16s %-20s %-10s base %-12.6g new %-12.6g change %+.3f spread %.3f/%.3f bound %.2f measured %s\n"
              w name final
              (num (member "median" (member name (member "metrics" b))))
              (num (member "median" (member name (member "metrics" n))))
              (if lower then worse else -.worse)
              sb sn bound measured)
          metrics)
    (workloads_of base);
  if !flagged then exit 3

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = Host.helper_flag then Host.serve ();
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  let trace_file = ref None and quick = ref false in
  let suite_mode = ref false and reps = ref 5 and out = ref None and trace_dir = ref None in
  let compare_args = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of: " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per run, most of them open loop (default 15)");
      ("--trace", Arg.Set_int trace, "0|1  1 reports per-layer metrics instead of end-to-end ones");
      ("--trace-file", Arg.String (fun f -> trace_file := Some f), "FILE  with --trace 1: write the spans as Chrome trace-event JSON");
      ("--quick", Arg.Set quick, " small inputs, for the smoke test");
      ("--suite", Arg.Set suite_mode, " run every workload --reps times, each in a fresh process");
      ("--reps", Arg.Set_int reps, "N  repetitions per workload in a suite (default 5)");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  write the suite summary as JSON");
      ("--trace-dir", Arg.String (fun d -> trace_dir := Some d), "DIR  suite: one extra traced run per workload, traces written here");
      ("--compare", Arg.Rest (fun f -> compare_args := f :: !compare_args), "BASE.json NEW.json  compare two suite files");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  Obs.set_clock Unix.gettimeofday;
  match List.rev !compare_args with
  | [ base; fresh ] -> compare_files base fresh
  | _ :: _ ->
    prerr_endline "--compare takes exactly two files";
    exit 2
  | [] ->
    if !suite_mode then
      suite ~reps:!reps ~seconds:!seconds ~seed:!seed ~out:!out ~trace_dir:!trace_dir ~quick:!quick
    else if !workload = "" then begin
      Arg.usage spec usage;
      exit 2
    end
    else if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "--trace takes 0 or 1";
      exit 2
    end
    else if !seconds <= 0.0 then begin
      prerr_endline "--seconds must be positive";
      exit 2
    end
    else
      run_one ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~trace_file:!trace_file ~quick:!quick
