(* The telemetry layer:
   - EWMA: injectable-clock determinism, half-life semantics, and the
     frozen-clock fallback to the cumulative average;
   - flight recorder: ring wraparound keeps exactly the last N entries,
     first-trigger-wins, and the dump JSON round-trips through Obs.Json;
   - server integration: a tight residual threshold with injected
     over-budget work trips the violation counter and the recorder
     trigger, while a standard run stays dump-free; virtual-time metric
     ticks are deterministic under a fake clock;
   - cost store: incremental exposition equals a full rebuild, picks
     are a counter family, and a cell's memory does not grow with its
     sample count. *)

open Helpers
module Ewma = Telemetry.Sketch.Ewma
module FR = Telemetry.Flight_recorder
module E = Treequery.Engine

(* ------------------------------------------------------------------ *)
(* EWMA *)

let stepped_clock dt =
  let now = ref 0.0 in
  fun () ->
    now := !now +. dt;
    !now

let test_ewma_deterministic () =
  let run () =
    let e = Ewma.create ~half_life:10.0 ~clock:(stepped_clock 3.0) () in
    List.iter (Ewma.observe e) [ 1.0; 5.0; 2.0; 8.0; 3.0 ];
    (Ewma.mean e, Ewma.variance e, Ewma.count e)
  in
  let m1, v1, c1 = run () in
  let m2, v2, c2 = run () in
  Alcotest.(check (float 0.0)) "mean deterministic" m1 m2;
  Alcotest.(check (float 0.0)) "variance deterministic" v1 v2;
  Alcotest.(check int) "count" 5 c1;
  Alcotest.(check int) "count" 5 c2

let test_ewma_half_life () =
  (* one half-life between samples: the mean moves exactly halfway *)
  let e = Ewma.create ~half_life:10.0 ~clock:(stepped_clock 10.0) () in
  Ewma.observe e 0.0;
  Alcotest.(check (float 0.0)) "first sample is the mean" 0.0 (Ewma.mean e);
  Ewma.observe e 8.0;
  Alcotest.(check (float 1e-12)) "moved halfway" 4.0 (Ewma.mean e)

let test_ewma_frozen_clock () =
  (* a frozen clock must not drop samples: alpha falls back to 1/(n+1),
     i.e. the plain cumulative average *)
  let e = Ewma.create ~half_life:10.0 ~clock:(fun () -> 5.0) () in
  List.iter (Ewma.observe e) [ 2.0; 4.0; 6.0; 8.0 ];
  Alcotest.(check (float 1e-12)) "cumulative average" 5.0 (Ewma.mean e);
  Alcotest.(check int) "all counted" 4 (Ewma.count e)

(* ------------------------------------------------------------------ *)
(* flight recorder *)

let entry i =
  {
    FR.id = i;
    fingerprint = Printf.sprintf "fp-%d" (i mod 3);
    strategy = "xpath-bottom-up";
    attrs = [ ("|D|", Obs.Int 100); ("note", Obs.Str "weird \"name\"\n") ];
    counters = [ ("nodes_visited", 10 * i); ("semijoins", i) ];
    latency = float_of_int i /. 1000.0;
    predicted = 100.0;
    observed = float_of_int (11 * i);
    outcome = (if i mod 4 = 3 then FR.Violation else FR.Served);
  }

let test_ring_wraparound () =
  let r = FR.create ~capacity:4 () in
  Alcotest.(check int) "empty" 0 (FR.length r);
  Alcotest.(check (list int)) "no entries" []
    (List.map (fun (e : FR.entry) -> e.FR.id) (FR.entries r));
  for i = 0 to 9 do
    FR.push r (entry i)
  done;
  Alcotest.(check int) "length capped" 4 (FR.length r);
  Alcotest.(check int) "total uncapped" 10 (FR.total r);
  Alcotest.(check (list int)) "exactly the last 4, oldest first"
    [ 6; 7; 8; 9 ]
    (List.map (fun (e : FR.entry) -> e.FR.id) (FR.entries r))

let test_trigger_first_wins () =
  let r = FR.create ~capacity:4 () in
  Alcotest.(check (option string)) "untriggered" None (FR.triggered r);
  FR.trigger r "shed";
  FR.trigger r "residual-violation";
  FR.trigger r "shed";
  Alcotest.(check (option string)) "first reason kept" (Some "shed")
    (FR.triggered r);
  Alcotest.(check int) "all counted" 3 (FR.trigger_count r)

let test_dump_roundtrip () =
  let r = FR.create ~capacity:8 () in
  for i = 0 to 12 do
    FR.push r (entry i)
  done;
  FR.trigger r "residual-violation";
  FR.trigger r "shed";
  let s = Obs.Json.to_string (FR.to_json r) in
  let r' = FR.of_json (Obs.Json.of_string s) in
  Alcotest.(check string) "dump is a round-trip fixpoint" s
    (Obs.Json.to_string (FR.to_json r'));
  Alcotest.(check int) "capacity" (FR.capacity r) (FR.capacity r');
  Alcotest.(check int) "total" (FR.total r) (FR.total r');
  Alcotest.(check int) "length" (FR.length r) (FR.length r');
  Alcotest.(check (option string)) "trigger" (FR.triggered r) (FR.triggered r');
  Alcotest.(check int) "trigger count" (FR.trigger_count r)
    (FR.trigger_count r');
  List.iter2
    (fun (a : FR.entry) (b : FR.entry) ->
      Alcotest.(check int) "id" a.FR.id b.FR.id;
      Alcotest.(check string) "fingerprint" a.FR.fingerprint b.FR.fingerprint;
      Alcotest.(check string) "outcome"
        (FR.outcome_to_string a.FR.outcome)
        (FR.outcome_to_string b.FR.outcome))
    (FR.entries r) (FR.entries r')

(* ------------------------------------------------------------------ *)
(* server integration *)

let with_clean_obs f =
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let mini_shapes sources =
  Array.of_list
    (List.map
       (fun s -> { Serve.Workload.source = s; query = E.parse_xpath s })
       sources)

let closed_requests n nshapes =
  List.init n (fun i ->
      { Serve.Workload.id = i; shape = i mod nshapes; arrival = None })

let test_residual_injection_trips () =
  with_clean_obs @@ fun () ->
  let t = fig2_tree () in
  let shapes = mini_shapes [ "//a[b]"; "//b" ] in
  let store = Telemetry.Cost_store.create ~threshold:1.0 () in
  let recorder = FR.create ~capacity:64 () in
  let cfg =
    Serve.Server.config ~telemetry:store ~recorder ~inject_overbudget:true ()
  in
  let stats =
    Obs.with_enabled true (fun () ->
        Serve.Server.run cfg t shapes (closed_requests 20 2))
  in
  Alcotest.(check int) "all served" 20 stats.Serve.Server.served;
  (* injected work is 2x the admission bound: every request violates *)
  Alcotest.(check int) "every request violates" 20
    stats.Serve.Server.residual_violations;
  Alcotest.(check int) "store agrees" 20 (Telemetry.Cost_store.violations store);
  Alcotest.(check (option string)) "recorder triggered"
    (Some "residual-violation") (FR.triggered recorder);
  Alcotest.(check int) "one entry per request" 20 (FR.total recorder);
  List.iter
    (fun (e : FR.entry) ->
      Alcotest.(check string) "outcome" "residual-violation"
        (FR.outcome_to_string e.FR.outcome);
      Alcotest.(check bool) "observed exceeds predicted" true
        (e.FR.observed > e.FR.predicted);
      Alcotest.(check bool) "injected counter present" true
        (List.mem_assoc "serve_injected_work" e.FR.counters))
    (FR.entries recorder);
  (* the outlier table names both fingerprints *)
  let outliers = Telemetry.Cost_store.outliers store in
  Alcotest.(check int) "both shapes are outliers" 2 (List.length outliers)

(* share mode burns the fault too: the wrapped exec runs inside each
   rep's scope, so every distinct plan served violates *)
let test_residual_injection_share_mode () =
  with_clean_obs @@ fun () ->
  let t = fig2_tree () in
  let shapes = mini_shapes [ "//a[b]"; "//b" ] in
  let store = Telemetry.Cost_store.create ~threshold:1.0 () in
  let cfg =
    Serve.Server.config ~share:true ~concurrency:10 ~telemetry:store
      ~inject_overbudget:true ()
  in
  let stats =
    Obs.with_enabled true (fun () ->
        Serve.Server.run cfg t shapes (closed_requests 20 2))
  in
  Alcotest.(check int) "all served" 20 stats.Serve.Server.served;
  Alcotest.(check int) "two plans per group" 4 stats.Serve.Server.distinct_evaluated;
  Alcotest.(check int) "every served plan violates" 4
    stats.Serve.Server.residual_violations;
  Alcotest.(check bool) "injected work counted" true
    (List.exists
       (fun (s : Telemetry.Cost_store.summary) ->
         List.mem_assoc "serve_injected_work" s.Telemetry.Cost_store.counters)
       (Telemetry.Cost_store.summaries store))

let test_standard_run_dump_free () =
  with_clean_obs @@ fun () ->
  let t = fig2_tree () in
  let shapes = mini_shapes [ "//a[b]" ] in
  let store = Telemetry.Cost_store.create ~threshold:1.0 () in
  let recorder = FR.create () in
  let cfg = Serve.Server.config ~telemetry:store ~recorder () in
  let stats =
    Obs.with_enabled true (fun () ->
        Serve.Server.run cfg t shapes (closed_requests 20 1))
  in
  Alcotest.(check int) "all served" 20 stats.Serve.Server.served;
  Alcotest.(check int) "no violations" 0 stats.Serve.Server.residual_violations;
  Alcotest.(check (option string)) "no trigger" None (FR.triggered recorder);
  (* the store still learned the workload *)
  let summaries = Telemetry.Cost_store.summaries store in
  Alcotest.(check int) "one key" 1 (List.length summaries);
  let s = List.hd summaries in
  Alcotest.(check int) "served per key" 20 s.Telemetry.Cost_store.served;
  let l = s.Telemetry.Cost_store.latency in
  Alcotest.(check bool) "p99 >= p50" true (l.Obs.p99 >= l.Obs.p50)

let test_metric_ticks_deterministic () =
  (* fake clock advancing 0.1 virtual seconds per reading; with
     tick_every 0.25 the tick count is a pure function of the request
     count, so two runs agree exactly *)
  let run () =
    let ticks = ref [] in
    let now = ref 0.0 in
    let clock () =
      now := !now +. 0.1;
      !now
    in
    let t = fig2_tree () in
    let shapes = mini_shapes [ "//a" ] in
    let cfg =
      Serve.Server.config ~clock ~tick_every:0.25
        ~on_tick:(fun i vt -> ticks := (i, vt) :: !ticks)
        ()
    in
    let _ = Serve.Server.run cfg t shapes (closed_requests 12 1) in
    List.rev !ticks
  in
  let t1 = run () in
  let t2 = run () in
  Alcotest.(check bool) "ticks fired" true (List.length t1 > 0);
  Alcotest.(check (list (pair int (float 0.0)))) "deterministic" t1 t2;
  (* deadlines are the multiples of tick_every, in order *)
  List.iteri
    (fun j (i, vt) ->
      Alcotest.(check int) "indices consecutive" j i;
      Alcotest.(check (float 1e-9)) "deadline grid"
        (float_of_int (j + 1) *. 0.25)
        vt)
    t1

(* ------------------------------------------------------------------ *)
(* cost-store exposition *)

module CS = Telemetry.Cost_store

(* the exposition a store's current summaries call for, built from
   scratch: every latency series in key order, then the picks series *)
let series_of_summaries (ss : CS.summary list) =
  let labels (s : CS.summary) =
    [ ("fingerprint", s.CS.fingerprint); ("strategy", s.CS.strategy) ]
  in
  List.map
    (fun (s : CS.summary) ->
      let l = s.CS.latency in
      {
        Obs.Openmetrics.metric = "serve_fp_latency";
        labels = labels s;
        quantiles = [ ("0.5", l.Obs.p50); ("0.9", l.Obs.p90); ("0.95", l.Obs.p95); ("0.99", l.Obs.p99) ];
        sum = l.Obs.mean *. float_of_int s.CS.served;
        count = s.CS.served;
      })
    ss
  @ List.filter_map
      (fun (s : CS.summary) ->
        if s.CS.picks = 0 then None
        else
          Some
            {
              Obs.Openmetrics.metric = "serve_fp_picks";
              labels = labels s;
              quantiles = [];
              sum = 0.0;
              count = s.CS.picks;
            })
      ss

type store_op = Observe of int * int * int | Pick of int * int | Expose

let store_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (5, map3 (fun f s l -> Observe (f, s, l)) (int_bound 5) (int_bound 2) (int_bound 40));
        (3, map2 (fun f s -> Pick (f, s)) (int_bound 5) (int_bound 2));
        (2, return Expose);
      ])

let store_op_print = function
  | Observe (f, s, l) -> Printf.sprintf "observe(%d,%d,%d)" f s l
  | Pick (f, s) -> Printf.sprintf "pick(%d,%d)" f s
  | Expose -> "expose"

(* the store recomputes only the cells touched since its previous
   exposition: after any interleaving, each exposition must equal the
   one rebuilt from the summaries at that moment *)
let prop_incremental_exposition =
  let print ops = String.concat " " (List.map store_op_print ops) in
  let gen = QCheck2.Gen.(list_size (int_range 0 80) store_op_gen) in
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck2.Test.make ~count:300 ~name:"incremental exposition = from scratch" ~print gen
       (fun ops ->
         let store = CS.create ~clock:(fun () -> 0.0) () in
         let fp i = Printf.sprintf "fp%d" i and strategy j = Printf.sprintf "s%d" j in
         let agrees () = CS.openmetrics store = series_of_summaries (CS.summaries store) in
         List.for_all
           (function
             | Observe (f, s, l) ->
               ignore
                 (CS.observe store ~fingerprint:(fp f) ~strategy:(strategy s) ~predicted:1.0
                    ~observed:1.0
                    ~latency:(float_of_int l *. 1e-3)
                    ~counters:[]);
               true
             | Pick (f, s) ->
               CS.record_pick store ~fingerprint:(fp f) ~strategy:(strategy s);
               true
             | Expose -> agrees ())
           ops
         && agrees ()))

(* optimizer picks are counts, not latencies: one counter family, no
   summary without quantiles *)
let test_picks_counter_family () =
  let store = CS.create ~clock:(fun () -> 0.0) () in
  let observe fp strategy =
    ignore
      (CS.observe store ~fingerprint:fp ~strategy ~predicted:1.0 ~observed:1.0
         ~latency:0.002 ~counters:[])
  in
  observe "fp-a" "yannakakis";
  observe "fp-b" "xpath";
  for _ = 1 to 12 do
    CS.record_pick store ~fingerprint:"fp-a" ~strategy:"yannakakis"
  done;
  CS.record_pick store ~fingerprint:"fp-b" ~strategy:"datalog";
  let text =
    Obs.Openmetrics.render ~extra:(CS.openmetrics store) Obs.Report.empty
  in
  let lines = String.split_on_char '\n' text in
  let has l = List.mem l lines in
  let starts_with prefix l = String.starts_with ~prefix l in
  Alcotest.(check bool) "picks typed counter" true
    (has "# TYPE treequery_serve_fp_picks counter");
  Alcotest.(check int) "one picks family" 1
    (List.length (List.filter (starts_with "# TYPE treequery_serve_fp_picks") lines));
  Alcotest.(check bool) "picks sample" true
    (has "treequery_serve_fp_picks_total{fingerprint=\"fp-a\",strategy=\"yannakakis\"} 12");
  Alcotest.(check bool) "pick-only cell sample" true
    (has "treequery_serve_fp_picks_total{fingerprint=\"fp-b\",strategy=\"datalog\"} 1");
  Alcotest.(check bool) "no picks latency summary" false
    (List.exists (starts_with "treequery_serve_fp_picks_seconds") lines);
  (* every summary family has quantile samples ([m{...}] lines; its
     count and sum lines are [m_count] and [m_sum]) *)
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "#"; "TYPE"; m; "summary" ] ->
        Alcotest.(check bool) (m ^ " has quantiles") true
          (List.exists (starts_with (m ^ "{")) lines)
      | _ -> ())
    lines

(* a cell's latency summary has a fixed size: a one-cell store takes
   the same number of words after 10 and after 10,000 distinct
   latencies *)
let test_cell_memory_constant () =
  let store = CS.create ~clock:(fun () -> 0.0) () in
  let observe i =
    ignore
      (CS.observe store ~fingerprint:"fp" ~strategy:"yannakakis" ~predicted:1.0
         ~observed:1.0
         ~latency:(1e-5 *. (1.0 +. (float_of_int i /. 1000.0)))
         ~counters:[])
  in
  for i = 1 to 10 do observe i done;
  let after_10 = Obj.reachable_words (Obj.repr store) in
  for i = 11 to 10_000 do observe i done;
  Alcotest.(check int) "words after 10 = after 10,000 samples" after_10
    (Obj.reachable_words (Obj.repr store))

let suite =
  [
    Alcotest.test_case "ewma deterministic under fake clock" `Quick
      test_ewma_deterministic;
    Alcotest.test_case "ewma half-life semantics" `Quick test_ewma_half_life;
    Alcotest.test_case "ewma frozen clock falls back to average" `Quick
      test_ewma_frozen_clock;
    Alcotest.test_case "ring wraparound keeps last N" `Quick
      test_ring_wraparound;
    Alcotest.test_case "trigger first-wins" `Quick test_trigger_first_wins;
    Alcotest.test_case "flight dump JSON round-trip" `Quick
      test_dump_roundtrip;
    Alcotest.test_case "injected over-budget trips residual gate" `Quick
      test_residual_injection_trips;
    Alcotest.test_case "share mode flags every injected plan" `Quick
      test_residual_injection_share_mode;
    Alcotest.test_case "standard run is dump-free" `Quick
      test_standard_run_dump_free;
    Alcotest.test_case "metric ticks deterministic under fake clock" `Quick
      test_metric_ticks_deterministic;
    prop_incremental_exposition;
    Alcotest.test_case "picks exposed as a counter family" `Quick
      test_picks_counter_family;
    Alcotest.test_case "cost-store cell memory is constant in its sample count"
      `Quick test_cell_memory_constant;
  ]
