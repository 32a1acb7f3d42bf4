(* Binary-level CLI regressions.

   These run the real executable (dune wires ../bin/main.exe as a test
   dep), because the bugs they pin live in argument handling — cmdliner
   wiring and the handle_errors exit path — which no library test
   reaches.

   The --domains validation: 0 and negative values must fail with a
   clean one-line error and the CLI failure status (124), never a
   Division_by_zero or a hung pool spawn. *)

let exe =
  let path = Filename.concat (Filename.dirname Sys.argv.(0)) "../bin/main.exe" in
  if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

(* run a command line (in [cwd] when given), return (exit_code, combined
   output) *)
let run_cli ?cwd args =
  let cmd = Filename.quote_command exe args ^ " 2>&1" in
  let cmd =
    match cwd with None -> cmd | Some d -> "cd " ^ Filename.quote d ^ " && " ^ cmd
  in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s -> 128 + s
    | Unix.WSTOPPED s -> 128 + s
  in
  (code, Buffer.contents buf)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let serve_args rest = [ "serve"; "--random"; "50"; "--requests"; "5" ] @ rest

let check_rejects ?(cmd = serve_args) name args ~expect_msg =
  let code, out = run_cli (cmd args) in
  Alcotest.(check int) (name ^ ": exit code") 124 code;
  Alcotest.(check bool)
    (Printf.sprintf "%s: message mentions the constraint (got %S)" name out)
    true
    (contains out expect_msg)

let test_domains_zero_rejected () =
  check_rejects "--domains 0" [ "--domains"; "0" ]
    ~expect_msg:"--domains must be >= 1"

let test_domains_negative_rejected () =
  check_rejects "--domains=-2" [ "--domains=-2" ]
    ~expect_msg:"--domains must be >= 1"

let test_domains_dangling_negative_rejected () =
  (* `--domains -2` parses -2 as an unknown option: cmdliner usage error,
     same failure status, no partial serve run *)
  let code, out = run_cli (serve_args [ "--domains"; "-2" ]) in
  Alcotest.(check int) "bare -2: exit code" 124 code;
  Alcotest.(check bool) "bare -2: no serve output" true
    (not (contains out "served"))

let test_domains_one_accepted () =
  let code, _ = run_cli (serve_args [ "--domains"; "1" ]) in
  Alcotest.(check int) "--domains 1 serves" 0 code

let test_strategy_unknown_rejected () =
  let code, out = run_cli (serve_args [ "--strategy"; "bogus" ]) in
  Alcotest.(check int) "unknown strategy: exit code" 124 code;
  Alcotest.(check bool)
    (Printf.sprintf "unknown strategy named in error (got %S)" out)
    true (contains out "bogus")

let test_strategy_auto_serves () =
  let code, out = run_cli (serve_args [ "--strategy"; "auto" ]) in
  Alcotest.(check int) "--strategy auto serves" 0 code;
  Alcotest.(check bool)
    (Printf.sprintf "summary reports the optimizer (got %S)" out)
    true
    (contains out "optimizer:")

(* `treequery filter` registers one standing query per pattern: a
   repeated pattern shares its index entry but keeps its own line *)
let test_filter_match_column () =
  let code, out =
    run_cli
      [ "filter"; "//a/b"; "//zzz"; "//a/b"; "--xml"; "<r><a><b/></a><d/></r>" ]
  in
  Alcotest.(check int) "filter exit code" 0 code;
  let lines = List.tl (String.split_on_char '\n' (String.trim out)) in
  Alcotest.(check (list string)) "MATCH column"
    [ "MATCH  //a/b"; "-      //zzz"; "MATCH  //a/b" ]
    lines

(* attest writes a report only when --out names one: a fault-injection
   run from a checkout must not replace the committed attestation with a
   failing report *)
let test_attest_writes_only_with_out () =
  let dir = Filename.temp_dir "attest" "" in
  let report = Filename.concat dir "BENCH_pr5.json" in
  let code, _ = run_cli ~cwd:dir [ "attest"; "--seed"; "7"; "--inject" ] in
  let written = Sys.file_exists report in
  if written then Sys.remove report;
  Sys.rmdir dir;
  Alcotest.(check bool) "injected attest exits nonzero" true (code <> 0);
  Alcotest.(check bool) "no report without --out" false written

(* out-of-range serve flags, and flags that need a companion flag to do
   anything, fail up front naming the constraint — not as an exception
   from the workload generator, nor as a run with a degenerate setting *)
let bad_serve_flags =
  [
    ([ "--shapes"; "0" ], "--shapes must be >= 1");
    ([ "--requests=-3" ], "--requests must be >= 0");
    ([ "--cache-size=-1" ], "--cache-size must be >= 0");
    ([ "--ttl=-1" ], "--ttl must be > 0");
    ([ "--deadline-ms=-5" ], "--deadline-ms must be > 0");
    ([ "--stream-prefilter" ], "--stream-prefilter requires --batch");
    ([ "--dump-flight" ], "--dump-flight requires --flight-out");
    ([ "--concurrency=0" ], "--concurrency must be >= 1");
    ([ "--metrics-every=0" ], "--metrics-every must be > 0");
    ([ "--residual-threshold=0" ], "--residual-threshold must be > 0");
  ]

(* every query language fails with the shared positioned error: the
   CLI prints the offset into the query text (for a positive query,
   into the failing disjunct, which the message names) *)
let bad_query_texts =
  [
    ("datalog", [ "--datalog"; "p(X) :- " ], "at offset 8: expected a predicate name");
    ("cq", [ "--cq"; "q(X) :- child(X, Y" ], "at offset 18: expected ')'");
    ( "positive",
      [ "--positive"; {|q(X) :- lab(X, "a").|}; "--positive"; "q(X) :- sideways(X, Y)." ],
      "at offset 8: disjunct 2: unknown axis sideways" );
  ]

let suite =
  [
    Alcotest.test_case "serve --domains 0 fails cleanly" `Quick
      test_domains_zero_rejected;
    Alcotest.test_case "serve --domains=-2 fails cleanly" `Quick
      test_domains_negative_rejected;
    Alcotest.test_case "serve --domains -2 is a usage error" `Quick
      test_domains_dangling_negative_rejected;
    Alcotest.test_case "serve --domains 1 still works" `Quick
      test_domains_one_accepted;
    Alcotest.test_case "serve --strategy rejects unknown names" `Quick
      test_strategy_unknown_rejected;
    Alcotest.test_case "serve --strategy auto end-to-end" `Quick
      test_strategy_auto_serves;
    Alcotest.test_case "filter marks matching patterns" `Quick
      test_filter_match_column;
    Alcotest.test_case "attest writes no report without --out" `Slow
      test_attest_writes_only_with_out;
  ]
  @ List.map
      (fun (args, expect_msg) ->
        let name = String.concat " " args in
        Alcotest.test_case ("serve " ^ name ^ " fails cleanly") `Quick (fun () ->
            (* without serve_args' --requests, which --requests would repeat *)
            check_rejects
              ~cmd:(fun rest -> [ "serve"; "--random"; "50" ] @ rest)
              name args ~expect_msg))
      bad_serve_flags
  @ List.map
      (fun (lang, args, expect_msg) ->
        Alcotest.test_case ("eval " ^ lang ^ " parse error is positioned") `Quick
          (fun () ->
            check_rejects
              ~cmd:(fun rest -> [ "eval"; "--random"; "10" ] @ rest)
              lang args ~expect_msg))
      bad_query_texts
  @ [
      Alcotest.test_case "eval XML parse error is positioned" `Quick (fun () ->
          check_rejects
            ~cmd:(fun rest -> [ "eval"; "--xpath"; "//a" ] @ rest)
            "--xml" [ "--xml"; "<a/> <b/>" ]
            ~expect_msg:"at offset 5: multiple root elements");
    ]
