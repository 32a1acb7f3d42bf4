(* The observability library itself, and the invariant that tracing a run
   never changes its result. *)
open Helpers
module E = Treequery.Engine

(* every test leaves Obs disabled and empty so suites stay independent *)
let with_clean_obs f =
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let test_span_nesting () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  Obs.Span.with_ "outer" (fun () ->
      Obs.Span.with_ "inner-1" (fun () -> ());
      Obs.Span.with_ "inner-2" (fun () ->
          Obs.Span.with_ "leaf" (fun () -> ())));
  Obs.Span.with_ "second-root" (fun () -> ());
  let r = Obs.Report.capture () in
  let names =
    List.map (fun (s : Obs.Report.span) -> s.name) r.Obs.Report.spans
  in
  Alcotest.(check (list string)) "roots in order" [ "outer"; "second-root" ] names;
  let outer = List.hd r.Obs.Report.spans in
  Alcotest.(check (list string))
    "children in order" [ "inner-1"; "inner-2" ]
    (List.map (fun (s : Obs.Report.span) -> s.name) outer.children);
  let inner2 = List.nth outer.children 1 in
  Alcotest.(check (list string))
    "grandchild" [ "leaf" ]
    (List.map (fun (s : Obs.Report.span) -> s.name) inner2.children);
  Alcotest.(check bool) "durations are non-negative" true
    (List.for_all (fun (s : Obs.Report.span) -> s.duration >= 0.0) r.Obs.Report.spans)

let test_span_survives_exception () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  (try Obs.Span.with_ "will-raise" (fun () -> failwith "boom")
   with Failure _ -> ());
  let r = Obs.Report.capture () in
  Alcotest.(check (list string))
    "span recorded despite exception" [ "will-raise" ]
    (List.map (fun (s : Obs.Report.span) -> s.name) r.Obs.Report.spans)

let test_counter_reset_between_runs () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  let c = Obs.Counter.make "test_only_counter" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "accumulated" 42 (Obs.Counter.value c);
  Alcotest.(check bool) "snapshot sees it" true
    (List.mem_assoc "test_only_counter" (Obs.Counter.snapshot ()));
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c);
  Alcotest.(check (list (pair string int))) "snapshot empty after reset" []
    (Obs.Counter.snapshot ());
  Obs.Counter.incr c;
  Alcotest.(check int) "second run counts afresh" 1 (Obs.Counter.value c);
  Alcotest.(check bool) "make is deduplicated by name" true
    (Obs.Counter.make "test_only_counter" == c)

let test_disabled_mode_empty () =
  with_clean_obs @@ fun () ->
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  let c = Obs.Counter.make "test_disabled_counter" in
  Obs.Counter.incr c;
  Obs.Counter.add c 7;
  Obs.Counter.record_max c 99;
  Obs.Span.with_ "invisible" (fun () -> ());
  let r = Obs.Report.capture () in
  Alcotest.(check bool) "report is empty" true (Obs.Report.is_empty r);
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c)

let test_json_roundtrip () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  let c = Obs.Counter.make "test_json_counter" in
  Obs.Counter.add c 123;
  Obs.Span.with_ "parent \"quoted\"" (fun () ->
      Obs.Span.with_ "child\n2" (fun () -> ()));
  let r = Obs.Report.capture () in
  let r' = Obs.Report.of_json (Obs.Report.to_json r) in
  Alcotest.(check (list (pair string int)))
    "counters round-trip" r.Obs.Report.counters r'.Obs.Report.counters;
  let rec names (s : Obs.Report.span) =
    s.name :: List.concat_map names s.children
  in
  Alcotest.(check (list string))
    "span names round-trip (incl. escapes)"
    (List.concat_map names r.Obs.Report.spans)
    (List.concat_map names r'.Obs.Report.spans);
  (* a second parse of a re-serialisation is identical *)
  Alcotest.(check string) "serialisation is a fixpoint"
    (Obs.Report.to_json r')
    (Obs.Report.to_json (Obs.Report.of_json (Obs.Report.to_json r')))

let test_json_parser_rejects_garbage () =
  Alcotest.(check bool) "garbage rejected" true
    (match Obs.Json.of_string "{\"a\": }" with
    | exception Obs.Json.Parse_failure _ -> true
    | _ -> false);
  Alcotest.(check bool) "trailing junk rejected" true
    (match Obs.Json.of_string "[1] x" with
    | exception Obs.Json.Parse_failure _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* tracing must not change results: acceptance criterion of the obs PR *)

let queries =
  [
    ("xpath", E.parse_xpath "//a[b and not(descendant::c)]");
    ("cq-yannakakis", E.parse_cq {| q(X) :- lab(X, "a"), child(X, Y), lab(Y, "b"). |});
    ( "cq-arc-consistency",
      E.parse_cq {| q :- descendant(X, Y), descendant(Y, Z), descendant(X, Z). |} );
    ( "cq-rewrite",
      E.parse_cq {| q(Z) :- lab(X, "a"), descendant(X, Z), lab(Y, "b"), descendant(Y, Z). |} );
    ( "datalog",
      E.parse_datalog
        {| mark(X) :- lab(X, "b"), notroot(X).
           notroot(X) :- firstchild(Y, X).
           notroot(X) :- nextsibling(Y, X).
           ?- mark. |} );
    ( "axis-datalog",
      E.parse_axis_datalog
        {| even(X) :- root(X).
           odd(Y) :- even(X), child(X, Y).
           even(Y) :- odd(X), child(X, Y).
           ?- odd. |} );
  ]

let test_tracing_changes_no_results () =
  with_clean_obs @@ fun () ->
  let trees =
    [ fig2_tree (); random_tree ~seed:7 ~n:60 (); random_tree ~seed:8 ~n:200 () ]
  in
  List.iter
    (fun tree ->
      List.iter
        (fun (name, q) ->
          let off = Obs.with_enabled false (fun () -> E.eval q tree) in
          Obs.reset ();
          let on = Obs.with_enabled true (fun () -> E.eval q tree) in
          check_nodeset (name ^ ": node set unchanged by tracing") off on;
          Alcotest.(check bool)
            (name ^ ": traced run recorded something") true
            (not (Obs.Report.is_empty (Obs.Report.capture ()))))
        queries)
    trees

let test_engine_semijoin_bound () =
  with_clean_obs @@ fun () ->
  (* Prop. 4.2: the full reducer is a 2·|edges| semijoin program, and the
     join tree has fewer edges than the query has atoms *)
  let q = {| q(X) :- lab(X, "a"), child(X, Y), lab(Y, "b"), descendant(Y, Z), lab(Z, "c"). |} in
  let parsed = E.parse_cq q in
  Alcotest.(check string) "planned as yannakakis" "yannakakis"
    (E.strategy_name (E.plan parsed));
  let atoms =
    match parsed with E.Cq_query cq -> Cqtree.Query.atom_count cq | _ -> assert false
  in
  let tree = random_tree ~seed:11 ~n:300 () in
  Obs.reset ();
  ignore (Obs.with_enabled true (fun () -> E.solutions parsed tree));
  let passes =
    match List.assoc_opt "semijoin_passes" (Obs.Counter.snapshot ()) with
    | Some v -> v
    | None -> Alcotest.fail "no semijoin_passes counter recorded"
  in
  Alcotest.(check bool)
    (Printf.sprintf "0 < %d semijoin passes <= 2*%d atoms" passes atoms)
    true
    (passes > 0 && passes <= 2 * atoms)

let test_hornsat_linear_witness () =
  with_clean_obs @@ fun () ->
  (* Minoux / Fig. 3: unit propagations are bounded by the formula size *)
  let f = Hornsat.create ~nvars:200 in
  for i = 0 to 198 do
    ignore (Hornsat.add_rule f ~head:(i + 1) ~body:[ i ])
  done;
  ignore (Hornsat.add_rule f ~head:0 ~body:[]);
  Obs.reset ();
  let truth = Obs.with_enabled true (fun () -> Hornsat.solve f) in
  Alcotest.(check bool) "chain fully derived" true (Array.for_all Fun.id truth);
  let props =
    match List.assoc_opt "hornsat_unit_props" (Obs.Counter.snapshot ()) with
    | Some v -> v
    | None -> Alcotest.fail "no hornsat_unit_props counter recorded"
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d propagations <= formula size %d" props (Hornsat.size_of_formula f))
    true
    (props > 0 && props <= Hornsat.size_of_formula f)

let test_histogram_quantiles () =
  let h = Obs.Histogram.make "test_hist_quantiles" in
  Obs.Histogram.clear h;
  (* 100 samples 1..100 ms: log-bucketed quantiles are approximate, but
     must land within one bucket (ratio sqrt 2) of the true value *)
  for i = 1 to 100 do
    Obs.Histogram.observe h (float_of_int i /. 1000.0)
  done;
  Alcotest.(check int) "count" 100 (Obs.Histogram.count h);
  let within_bucket name expected actual =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.4f within a bucket of %.4f" name actual expected)
      true
      (actual >= expected /. sqrt 2.0 && actual <= expected *. sqrt 2.0)
  in
  let s = Obs.Histogram.summary h in
  within_bucket "p50" 0.050 s.Obs.p50;
  within_bucket "p99" 0.099 s.Obs.p99;
  Alcotest.(check (float 1e-9)) "max is exact" 0.100 s.Obs.max;
  Alcotest.(check bool) "mean near 50.5 ms" true
    (Float.abs (s.Obs.mean -. 0.0505) < 0.001);
  (* quantiles are monotone *)
  Alcotest.(check bool) "p50 <= p90 <= p95 <= p99 <= max" true
    (s.Obs.p50 <= s.Obs.p90 && s.Obs.p90 <= s.Obs.p95 && s.Obs.p95 <= s.Obs.p99
   && s.Obs.p99 <= s.Obs.max *. sqrt 2.0);
  (* clear empties this histogram only *)
  Obs.Histogram.clear h;
  Alcotest.(check int) "cleared" 0 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "empty percentile is 0" 0.0
    (Obs.Histogram.percentile h 0.5)

let test_histogram_ungated_and_registered () =
  with_clean_obs @@ fun () ->
  (* histograms are deliberate driver instruments: they record even with
     tracing disabled, and make is deduplicated by name *)
  Alcotest.(check bool) "tracing is off" false (Obs.enabled ());
  let h = Obs.Histogram.make "test_hist_ungated" in
  Obs.Histogram.clear h;
  Obs.Histogram.observe h 0.002;
  Obs.Histogram.observe h (-1.0) (* clamped to 0, still counted *);
  Alcotest.(check int) "recorded while disabled" 2 (Obs.Histogram.count h);
  Alcotest.(check bool) "make deduplicates" true
    (Obs.Histogram.make "test_hist_ungated" == h);
  Alcotest.(check bool) "snapshot lists it" true
    (List.mem_assoc "test_hist_ungated" (Obs.Histogram.snapshot ()));
  Obs.Histogram.clear h;
  Alcotest.(check bool) "empty histograms drop out of the snapshot" false
    (List.mem_assoc "test_hist_ungated" (Obs.Histogram.snapshot ()))

let test_explain_appends_observed () =
  with_clean_obs @@ fun () ->
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let q = E.parse_xpath "//a[b]" in
  let plain = E.explain q in
  Alcotest.(check bool) "no observed section without a run" false
    (contains plain "observed:");
  Obs.reset ();
  ignore (Obs.with_enabled true (fun () -> E.eval q (fig2_tree ())));
  let traced = E.explain q in
  Alcotest.(check bool) "observed section after a traced run" true
    (contains traced "observed:");
  Alcotest.(check bool) "lists nodes_visited" true (contains traced "nodes_visited")

(* ------------------------------------------------------------------ *)
(* span attributes, scoped collection, trace export, openmetrics       *)

let test_span_raising_child_nests () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  (* a child that raises must still be recorded as a child (the frame is
     popped and attached on the exception path), and the parent's later
     children must not end up nested under the dead child *)
  (try
     Obs.Span.with_ "parent" (fun () ->
         (try Obs.Span.with_ "dies" (fun () -> failwith "boom")
          with Failure _ -> ());
         Obs.Span.with_ "after" (fun () -> ());
         failwith "parent-boom")
   with Failure _ -> ());
  let r = Obs.Report.capture () in
  Alcotest.(check (list string))
    "parent is the only root" [ "parent" ]
    (List.map (fun (s : Obs.Report.span) -> s.name) r.Obs.Report.spans);
  let parent = List.hd r.Obs.Report.spans in
  Alcotest.(check (list string))
    "both children recorded, in order" [ "dies"; "after" ]
    (List.map (fun (s : Obs.Report.span) -> s.name) parent.children);
  Alcotest.(check int) "span_count counts the forest" 3
    (Obs.Report.span_count r)

let test_with_enabled_toggle_mid_span () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  (* disabling inside an open span must not corrupt the stack: the outer
     span still closes and attaches correctly afterwards *)
  Obs.Span.with_ "outer" (fun () ->
      Obs.with_enabled false (fun () ->
          Obs.Span.with_ "invisible" (fun () -> ());
          Obs.with_enabled true (fun () ->
              Obs.Span.with_ "visible-again" (fun () -> ())));
      Obs.Span.with_ "tail" (fun () -> ()));
  let r = Obs.Report.capture () in
  Alcotest.(check (list string))
    "one root" [ "outer" ]
    (List.map (fun (s : Obs.Report.span) -> s.name) r.Obs.Report.spans);
  let outer = List.hd r.Obs.Report.spans in
  Alcotest.(check (list string))
    "disabled span dropped, re-enabled + tail kept"
    [ "visible-again"; "tail" ]
    (List.map (fun (s : Obs.Report.span) -> s.name) outer.children)

let test_span_attrs () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  Obs.Span.with_ ~attrs:[ ("|D|", Obs.Int 42); ("strategy", Obs.Str "xpath") ]
    "eval"
    (fun () -> Obs.Span.set_attr "answers" (Obs.Int 7));
  let r = Obs.Report.capture () in
  let s = List.hd r.Obs.Report.spans in
  Alcotest.(check int) "three attrs" 3 (List.length s.attrs);
  (match List.assoc_opt "answers" s.attrs with
  | Some (Obs.Int 7) -> ()
  | _ -> Alcotest.fail "set_attr value missing");
  (* attrs survive the JSON round-trip *)
  let r' = Obs.Report.of_json (Obs.Report.to_json r) in
  let s' = List.hd r'.Obs.Report.spans in
  Alcotest.(check bool) "attrs round-trip" true (s.attrs = s'.attrs);
  Alcotest.(check string) "round-trip fixpoint" (Obs.Report.to_json r)
    (Obs.Report.to_json r')

let test_scope_deltas () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  let c = Obs.Counter.make "test_scope_counter" in
  Obs.Counter.add c 100 (* before the scope: must not be attributed *);
  let (), p =
    Obs.Scope.collect "region" (fun () ->
        Obs.Counter.add c 7;
        let (), inner = Obs.Scope.collect "nested" (fun () -> Obs.Counter.add c 5) in
        Alcotest.(check (list (pair string int)))
          "nested scope sees only its own work"
          [ ("test_scope_counter", 5) ]
          inner.Obs.profile_counters)
  in
  Alcotest.(check (list (pair string int)))
    "outer delta includes nested work, excludes pre-scope work"
    [ ("test_scope_counter", 12) ]
    p.Obs.profile_counters;
  Alcotest.(check int) "global counter unaffected" 112 (Obs.Counter.value c);
  (* record appends to the capture, even when the thunk raises *)
  (try
     Obs.Scope.record ~attrs:[ ("fingerprint", Obs.Str "fp1") ] "req" (fun () ->
         Obs.Counter.add c 3;
         failwith "boom")
   with Failure _ -> ());
  let r = Obs.Report.capture () in
  (match r.Obs.Report.profiles with
  | [ p ] ->
    Alcotest.(check string) "label" "req" p.Obs.profile_label;
    Alcotest.(check (list (pair string int)))
      "raised scope still profiled"
      [ ("test_scope_counter", 3) ]
      p.Obs.profile_counters
  | ps -> Alcotest.fail (Printf.sprintf "expected 1 profile, got %d" (List.length ps)))

let test_trace_export () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  let sink = Obs.Trace.start_stream () in
  Obs.Span.with_ "a" (fun () ->
      Obs.Span.with_ ~attrs:[ ("k", Obs.Int 1) ] "b" (fun () -> ()));
  Obs.Span.with_ "c" (fun () -> ());
  let r = Obs.Report.capture () in
  let doc = Obs.Trace.of_report r in
  Alcotest.(check int) "event count = span count" (Obs.Report.span_count r)
    (Obs.Trace.event_count doc);
  (* the document survives our own serialise/parse *)
  let parsed = Obs.Json.of_string (Obs.Json.to_string doc) in
  Alcotest.(check int) "parses back with same event count"
    (Obs.Trace.event_count doc)
    (Obs.Trace.event_count parsed);
  (* the streaming sink saw the same spans as the batch conversion *)
  let streamed = Obs.Trace.stop_stream sink in
  Alcotest.(check int) "streamed count matches" (Obs.Report.span_count r)
    (Obs.Trace.event_count streamed)

let test_openmetrics_render () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  let c = Obs.Counter.make "test_om_counter" in
  Obs.Counter.add c 5;
  let h = Obs.Histogram.make "test_om_latency" in
  Obs.Histogram.clear h;
  Obs.Histogram.observe h 0.002;
  let r = Obs.Report.capture () in
  Obs.Histogram.clear h;
  let text = Obs.Openmetrics.render r in
  let contains needle =
    let lh = String.length text and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub text i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter _total line" true
    (contains "treequery_test_om_counter_total 5");
  Alcotest.(check bool) "counter TYPE line" true
    (contains "# TYPE treequery_test_om_counter counter");
  Alcotest.(check bool) "summary quantile line" true
    (contains "treequery_test_om_latency_seconds{quantile=\"0.5\"}");
  Alcotest.(check bool) "summary count line" true
    (contains "treequery_test_om_latency_seconds_count 1");
  Alcotest.(check bool) "ends with EOF marker" true
    (let tail = "# EOF\n" in
     String.length text >= String.length tail
     && String.sub text (String.length text - String.length tail)
          (String.length tail)
        = tail)

(* OpenMetrics spec audit: every family carries # HELP and # TYPE,
   label values escape backslash/quote/newline, and adversarial label
   values can never break the line structure of the exposition *)
let test_openmetrics_help_and_gauges () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  let c = Obs.Counter.make "test_om_help" in
  Obs.Counter.incr c;
  let r = Obs.Report.capture () in
  let gauges =
    [
      Obs.Openmetrics.gauge ~help:"Build identity."
        ~labels:[ ("version", "1.0.0"); ("strategies", "a,b") ]
        "build_info" 1.0;
      Obs.Openmetrics.gauge "process_start_time_seconds" 1234.5;
    ]
  in
  let text = Obs.Openmetrics.render ~gauges r in
  let lines = String.split_on_char '\n' text in
  let has l = List.mem l lines in
  Alcotest.(check bool) "gauge TYPE" true (has "# TYPE treequery_build_info gauge");
  Alcotest.(check bool) "gauge HELP" true
    (has "# HELP treequery_build_info Build identity.");
  Alcotest.(check bool) "build info sample" true
    (has "treequery_build_info{version=\"1.0.0\",strategies=\"a,b\"} 1");
  Alcotest.(check bool) "start time sample" true
    (has "treequery_process_start_time_seconds 1234.5");
  Alcotest.(check bool) "counter HELP" true
    (has "# HELP treequery_test_om_help Cumulative count of test_om_help events.");
  Alcotest.(check bool) "counter TYPE still present" true
    (has "# TYPE treequery_test_om_help counter")

let test_openmetrics_label_escaping () =
  let adversarial = "a\\b\"c\nd,e{f}g=h" in
  Alcotest.(check string) "escape_label" "a\\\\b\\\"c\\nd,e{f}g=h"
    (Obs.Openmetrics.escape_label adversarial);
  let r = Obs.Report.empty in
  let summary =
    {
      Obs.Openmetrics.metric = "adv latency!";
      labels = [ ("finger print", adversarial); ("q\"k", "\\") ];
      quantiles = [ ("0.5", 0.001) ];
      sum = 0.002;
      count = 2;
    }
  in
  let gauge =
    Obs.Openmetrics.gauge ~help:"multi\nline \\ help"
      ~labels:[ ("v", adversarial) ]
      "adv_gauge" 7.0
  in
  let text = Obs.Openmetrics.render ~gauges:[ gauge ] ~extra:[ summary ] r in
  let lines = String.split_on_char '\n' text in
  (* label names and metric names are sanitized, values escaped: every
     sample line still has the shape name{labels} value *)
  Alcotest.(check bool) "escaped summary line" true
    (List.mem
       ("treequery_adv_latency__seconds{finger_print=\"a\\\\b\\\"c\\nd,e{f}g=h\","
      ^ "q_k=\"\\\\\",quantile=\"0.5\"} 0.001")
       lines);
  Alcotest.(check bool) "escaped gauge line" true
    (List.mem "treequery_adv_gauge{v=\"a\\\\b\\\"c\\nd,e{f}g=h\"} 7" lines);
  Alcotest.(check bool) "escaped help line" true
    (List.mem "# HELP treequery_adv_gauge multi\\nline \\\\ help" lines);
  (* no raw newline survives inside any line: every line is either a
     comment, blank (the final split remnant), or starts with the
     treequery_ prefix *)
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "well-formed line %S" l)
        true
        (l = "" || l.[0] = '#'
        || (String.length l > 10 && String.sub l 0 10 = "treequery_")))
    lines

let prop_openmetrics_escaping_total =
  Helpers.qtest ~count:300 "random label values never break line structure"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 30))
    (fun v ->
      let r = Obs.Report.empty in
      let g = Obs.Openmetrics.gauge ~labels:[ ("k", v) ] "prop_gauge" 1.0 in
      let text = Obs.Openmetrics.render ~gauges:[ g ] r in
      List.for_all
        (fun l ->
          l = "" || l.[0] = '#'
          || (String.length l > 10 && String.sub l 0 10 = "treequery_"))
        (String.split_on_char '\n' text))

let test_bound_fit_slope () =
  let close what expected actual =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.3f near %.3f" what actual expected)
      true
      (Float.abs (actual -. expected) < 0.01)
  in
  close "linear" 1.0
    (Obs.Bound.fit_slope [ (10., 30.); (20., 60.); (40., 120.); (80., 240.) ]);
  close "quadratic" 2.0
    (Obs.Bound.fit_slope [ (10., 100.); (20., 400.); (40., 1600.) ]);
  close "constant" 0.0 (Obs.Bound.fit_slope [ (10., 5.); (100., 5.); (1000., 5.) ]);
  close "degenerate: too few points" 0.0 (Obs.Bound.fit_slope [ (10., 100.) ]);
  close "nonpositive points skipped" 1.0
    (Obs.Bound.fit_slope [ (0., 7.); (10., 30.); (20., 60.); (-3., 9.); (40., 120.) ])

(* -------------------------------------------------------------------- *)
(* Histogram.merge: total over every bucket-population combination        *)

let test_histogram_merge () =
  let mk name = let h = Obs.Histogram.make name in Obs.Histogram.clear h; h in
  (* empty into empty, and empty into populated: no-ops *)
  let a = mk "test_merge_a" and b = mk "test_merge_b" in
  Obs.Histogram.merge ~into:a b;
  Alcotest.(check int) "empty into empty" 0 (Obs.Histogram.count a);
  Obs.Histogram.observe a 0.004;
  Obs.Histogram.observe a 0.008;
  Obs.Histogram.merge ~into:a b;
  Alcotest.(check int) "empty src is a no-op" 2 (Obs.Histogram.count a);
  let s = Obs.Histogram.summary a in
  Alcotest.(check (float 1e-9)) "max untouched" 0.008 s.Obs.max;
  (* populated into empty: the target becomes a copy *)
  Obs.Histogram.merge ~into:b a;
  Alcotest.(check int) "populated into empty: count" 2 (Obs.Histogram.count b);
  Alcotest.(check (float 1e-9)) "populated into empty: max" 0.008
    (Obs.Histogram.summary b).Obs.max;
  (* disjoint buckets: small samples into a large-sample target *)
  let c = mk "test_merge_c" and d = mk "test_merge_d" in
  for _ = 1 to 10 do Obs.Histogram.observe c 0.001 done;
  for _ = 1 to 10 do Obs.Histogram.observe d 1.0 done;
  Obs.Histogram.merge ~into:c d;
  Alcotest.(check int) "disjoint: counts add" 20 (Obs.Histogram.count c);
  let s = Obs.Histogram.summary c in
  Alcotest.(check (float 1e-9)) "disjoint: max from src" 1.0 s.Obs.max;
  Alcotest.(check bool) "disjoint: p25 from target side" true (Obs.Histogram.percentile c 0.25 < 0.01);
  Alcotest.(check bool) "disjoint: p99 from src side" true (Obs.Histogram.percentile c 0.99 > 0.5);
  (* overlapping buckets: same samples both sides, counts double *)
  let e = mk "test_merge_e" and f = mk "test_merge_f" in
  for i = 1 to 50 do
    Obs.Histogram.observe e (float_of_int i /. 1000.0);
    Obs.Histogram.observe f (float_of_int i /. 1000.0)
  done;
  let p50_before = Obs.Histogram.percentile e 0.5 in
  Obs.Histogram.merge ~into:e f;
  Alcotest.(check int) "overlapping: counts add" 100 (Obs.Histogram.count e);
  Alcotest.(check (float 1e-9)) "overlapping: quantiles unchanged"
    p50_before (Obs.Histogram.percentile e 0.5);
  (* merge is cumulative with further observations *)
  Obs.Histogram.observe e 2.0;
  Alcotest.(check (float 1e-9)) "observe after merge" 2.0
    (Obs.Histogram.summary e).Obs.max

(* -------------------------------------------------------------------- *)
(* Obs.Shard: deferred counters/histograms/spans/profiles, merged on the
   installing side — exercised here on the main domain (Shard.run is
   pure DLS bookkeeping, no spawn required) *)

let test_shard_counters_merge () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  let c = Obs.Counter.make "test_shard_counter" in
  let g = Obs.Counter.make "test_shard_gauge" in
  Obs.Counter.add c 5;
  Obs.Counter.record_max g 10;
  let sh = Obs.Shard.create () in
  Obs.Shard.run sh (fun () ->
      Obs.Counter.add c 7;
      Obs.Counter.incr c;
      Obs.Counter.record_max g 3 (* below the global max: must not win *));
  Alcotest.(check int) "global cell untouched before merge" 5
    (Obs.Counter.value c);
  let sh2 = Obs.Shard.create () in
  Obs.Shard.run sh2 (fun () ->
      Obs.Counter.add c 2;
      Obs.Counter.record_max g 42);
  Obs.Shard.merge sh;
  Obs.Shard.merge sh2;
  Alcotest.(check int) "adds sum across shards" 15 (Obs.Counter.value c);
  Alcotest.(check int) "gauge merges by max" 42 (Obs.Counter.value g)

let test_shard_spans_profiles_merge () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  let c = Obs.Counter.make "test_shard_scope_counter" in
  let h = Obs.Histogram.make "test_shard_hist" in
  Obs.Histogram.clear h;
  let sh = Obs.Shard.create () in
  Obs.Span.with_ "enclosing" (fun () ->
      let (), profile =
        Obs.Shard.run sh (fun () ->
            Obs.Scope.collect "worker-task" (fun () ->
                Obs.Span.with_ "worker-span" (fun () -> Obs.Counter.add c 9);
                Obs.Histogram.observe h 0.002))
      in
      Obs.Shard.run sh (fun () -> Obs.Scope.note profile);
      Alcotest.(check int) "shard histogram deferred" 0 (Obs.Histogram.count h);
      Obs.Shard.merge sh);
  Alcotest.(check int) "counter merged" 9 (Obs.Counter.value c);
  Alcotest.(check int) "histogram merged" 1 (Obs.Histogram.count h);
  let r = Obs.Report.capture () in
  let enclosing = List.hd r.Obs.Report.spans in
  Alcotest.(check string) "root is the enclosing span" "enclosing"
    enclosing.Obs.Report.name;
  let child_names =
    List.map (fun (s : Obs.Report.span) -> s.name) enclosing.children
  in
  Alcotest.(check bool) "worker spans grafted under it" true
    (List.mem "worker-span" child_names);
  let profiles = r.Obs.Report.profiles in
  Alcotest.(check bool) "worker profile captured" true
    (List.exists (fun (p : Obs.profile) -> p.Obs.profile_label = "worker-task") profiles);
  (* the profile's own counter delta survived the shard indirection *)
  let p =
    List.find (fun (p : Obs.profile) -> p.Obs.profile_label = "worker-task") profiles
  in
  Alcotest.(check bool) "scope saw the shard-routed delta" true
    (List.mem_assoc "test_shard_scope_counter" p.Obs.profile_counters
    && List.assoc "test_shard_scope_counter" p.Obs.profile_counters = 9)

(* Spans are frozen when they close: a captured report never changes
   afterwards, and a later capture shares the same closed spans *)
let test_report_immutable_shared () =
  with_clean_obs @@ fun () ->
  Obs.set_enabled true;
  let sink = Obs.Trace.start_stream () in
  let worker name =
    let sh = Obs.Shard.create () in
    Obs.Shard.run sh (fun () ->
        Obs.Span.with_ ~attrs:[ ("w", Obs.Str name) ] name (fun () ->
            Obs.Span.with_ (name ^ "-leaf") (fun () -> ())));
    sh
  in
  let first = ref Obs.Report.empty in
  Obs.Span.with_ ~attrs:[ ("k", Obs.Int 1) ] "a" (fun () ->
      Obs.Span.with_ "a-child" (fun () -> Obs.Span.set_attr "n" (Obs.Int 2)));
  Obs.Span.with_ "b" (fun () -> ());
  Obs.Span.with_ "open" (fun () ->
      Obs.Span.with_ "open-child" (fun () -> ());
      first := Obs.Report.capture ();
      let json = Obs.Report.to_json !first in
      (* more closed spans, a late attribute on the still-open span and
         worker spans grafted under it and at the root *)
      Obs.Span.with_ "open-child-2" (fun () -> ());
      Obs.Span.set_attr "late" (Obs.Int 7);
      Obs.Shard.merge (worker "inner-worker");
      Alcotest.(check string) "first report unchanged while open" json
        (Obs.Report.to_json !first));
  let json = Obs.Report.to_json !first in
  Obs.Shard.merge (worker "root-worker");
  Obs.Span.with_ "c" (fun () -> ());
  let second = Obs.Report.capture () in
  Alcotest.(check string) "first report unchanged" json (Obs.Report.to_json !first);
  let r1 = !first.Obs.Report.spans and r2 = second.Obs.Report.spans in
  Alcotest.(check int) "first report's roots" 2 (List.length r1);
  Alcotest.(check (list string)) "second report's roots"
    [ "a"; "b"; "open"; "root-worker"; "c" ]
    (List.map (fun (s : Obs.Report.span) -> s.name) r2);
  List.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "root %d shared, not copied" i)
        true
        (s == List.nth r2 i))
    r1;
  let opened = List.nth r2 2 in
  Alcotest.(check (list string)) "grafted and late spans under the open one"
    [ "open-child"; "open-child-2"; "inner-worker" ]
    (List.map (fun (s : Obs.Report.span) -> s.name) opened.children);
  Alcotest.(check bool) "late attribute on the closed span" true
    (List.mem_assoc "late" opened.attrs);
  let streamed = Obs.Trace.stop_stream sink in
  Alcotest.(check int) "streamed events = batch export"
    (Obs.Trace.event_count (Obs.Trace.of_report second))
    (Obs.Trace.event_count streamed)

let suite =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "raising child stays nested" `Quick
      test_span_raising_child_nests;
    Alcotest.test_case "with_enabled toggle mid-span" `Quick
      test_with_enabled_toggle_mid_span;
    Alcotest.test_case "span attributes" `Quick test_span_attrs;
    Alcotest.test_case "scoped collection deltas" `Quick test_scope_deltas;
    Alcotest.test_case "chrome trace export" `Quick test_trace_export;
    Alcotest.test_case "openmetrics exposition" `Quick test_openmetrics_render;
    Alcotest.test_case "openmetrics HELP and gauges" `Quick
      test_openmetrics_help_and_gauges;
    Alcotest.test_case "openmetrics label escaping" `Quick
      test_openmetrics_label_escaping;
    prop_openmetrics_escaping_total;
    Alcotest.test_case "bound slope fitting" `Quick test_bound_fit_slope;
    Alcotest.test_case "span survives exception" `Quick test_span_survives_exception;
    Alcotest.test_case "counter reset between runs" `Quick test_counter_reset_between_runs;
    Alcotest.test_case "disabled mode leaves report empty" `Quick test_disabled_mode_empty;
    Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "JSON parser rejects garbage" `Quick test_json_parser_rejects_garbage;
    Alcotest.test_case "tracing changes no results" `Quick test_tracing_changes_no_results;
    Alcotest.test_case "yannakakis semijoin-pass bound" `Quick test_engine_semijoin_bound;
    Alcotest.test_case "hornsat propagation bound" `Quick test_hornsat_linear_witness;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "histogram ungated + registered" `Quick
      test_histogram_ungated_and_registered;
    Alcotest.test_case "explain appends observed counters" `Quick
      test_explain_appends_observed;
    Alcotest.test_case "histogram merge is total" `Quick test_histogram_merge;
    Alcotest.test_case "shard counters merge" `Quick test_shard_counters_merge;
    Alcotest.test_case "shard spans and profiles merge" `Quick
      test_shard_spans_profiles_merge;
    Alcotest.test_case "captured report is immutable and shared" `Quick
      test_report_immutable_shared;
  ]
