(* Smoke test of the system benchmark: every workload, untraced and
   traced, on the --quick inputs.  It checks that each metric
   BENCHMARK.json names is printed with its unit, that no op failed,
   and that the trace file parses.  No assertion reads a clock. *)

let exe = Sys.argv.(1)

let spec = Obs.Json.of_string (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline ("FAIL " ^ m))
    fmt

let member k j = Option.get (Obs.Json.member k j)

let str = function Obs.Json.Str s -> s | _ -> failwith "expected a string"

let list = function Obs.Json.Arr l -> l | _ -> failwith "expected a list"

let metrics kind = List.map (fun m -> (str (member "name" m), str (member "unit" m))) (list (member kind spec))

let run args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s exited non-zero" (String.concat " " args));
  lines

let check ~label lines expected =
  match List.rev lines with
  | [] ->
    fail "%s: no output" label;
    Obs.Json.Null
  | last :: _ ->
    let result = Obs.Json.of_string last in
    if member "correct" result <> Obs.Json.Bool true then fail "%s: not correct" label;
    if member "failed" result <> Obs.Json.Num 0.0 then fail "%s: ops failed (fail_frac > 0)" label;
    let got = member "metrics" result in
    List.iter
      (fun (name, unit) ->
        (match Obs.Json.member name got with
        | Some m when Obs.Json.member "unit" m = Some (Obs.Json.Str unit) -> ()
        | _ -> fail "%s: metric %s with unit %s missing from the result" label name unit);
        let prefix = name ^ " = " and suffix = " " ^ unit in
        let printed l =
          String.starts_with ~prefix l && String.ends_with ~suffix l
        in
        if not (List.exists printed lines) then fail "%s: line for %s [%s] not printed" label name unit)
      expected;
    got

let () =
  List.iter
    (fun w ->
      let name = str (member "name" w) in
      let common = [ "--workload"; name; "--seed"; "1"; "--seconds"; "0.2"; "--quick" ] in
      ignore (check ~label:name (run (common @ [ "--trace"; "0" ])) (metrics "end_to_end"));
      let trace_file = name ^ ".trace.json" in
      let got =
        check ~label:(name ^ " traced")
          (run (common @ [ "--trace"; "1"; "--trace-file"; trace_file ]))
          (metrics "per_layer")
      in
      (* within each op span, the self times add up to the op's duration *)
      (match Obs.Json.member "trace.self_sum_err_max" got with
      | Some m -> (
        match member "value" m with
        | Obs.Json.Num e when e <= 0.05 -> ()
        | _ -> fail "%s: self times do not add up to op durations" name)
      | None -> ());
      match Obs.Json.of_string (In_channel.with_open_bin trace_file In_channel.input_all) with
      | trace ->
        let events = list (member "traceEvents" trace) in
        if not (List.exists (fun e -> Obs.Json.member "name" e = Some (Obs.Json.Str "op")) events) then
          fail "%s: trace has no op spans" name
      | exception e -> fail "%s: trace does not parse: %s" name (Printexc.to_string e))
    (list (member "workloads" spec));
  if !failures > 0 then exit 1
