(* The attestation harness: the registered bounds sweep clean, the gate
   restores observability state, and an injected superlinear fault is
   caught.  The full-size sweep is the `treequery attest` CI step; here
   the same entry point runs at its default sizes but the assertions are
   structural, so the suite stays fast and machine-independent. *)

let with_clean_obs f =
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let test_registry () =
  let ids = List.map (fun (b : Obs.Bound.t) -> b.Obs.Bound.id) (Obs.Bound.all ()) in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [
      "datalog-grounding"; "hornsat-unit-props"; "semijoin-passes";
      "structural-join-merge"; "stream-buffer-depth"; "plan-cache-lookup";
      "xpath-bottom-up"; "optimizer-pick";
    ];
  (match Obs.Bound.find "plan-cache-lookup" with
  | Some b ->
    Alcotest.(check (float 1e-9)) "O(1) claim has exponent 0" 0.0
      b.Obs.Bound.exponent
  | None -> Alcotest.fail "find failed");
  (* registration is idempotent per id *)
  let n = List.length (Obs.Bound.all ()) in
  let b = List.hd (Obs.Bound.all ()) in
  let b' =
    Obs.Bound.register ~id:b.Obs.Bound.id ~claim:b.Obs.Bound.claim
      ~counter:b.Obs.Bound.counter ~term:b.Obs.Bound.term
      ~exponent:b.Obs.Bound.exponent
  in
  Alcotest.(check bool) "re-register returns the existing bound" true (b == b');
  Alcotest.(check int) "registry size unchanged" n
    (List.length (Obs.Bound.all ()))

let test_clean_sweep () =
  with_clean_obs @@ fun () ->
  let outcomes = Attest.run ~seed:7 ~tolerance:0.15 () in
  Alcotest.(check int) "eight bounds swept" 8 (List.length outcomes);
  List.iter
    (fun (o : Attest.outcome) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: slope %.3f <= %.1f + 0.15" o.Attest.bound.Obs.Bound.id
           o.Attest.slope o.Attest.bound.Obs.Bound.exponent)
        true (Attest.outcome_ok o);
      Alcotest.(check bool)
        (o.Attest.bound.Obs.Bound.id ^ ": sweep produced points")
        true
        (List.length o.Attest.points >= 4))
    outcomes;
  Alcotest.(check bool) "all_ok" true (Attest.all_ok outcomes);
  (* the optimizer's exact check ran at every size: the pick did no more
     work than the cheapest plausible arm *)
  let pick =
    List.find
      (fun (o : Attest.outcome) -> o.Attest.bound.Obs.Bound.id = "optimizer-pick")
      outcomes
  in
  List.iter
    (fun (n, work, cap) ->
      Alcotest.(check bool)
        (Printf.sprintf "|D| = %.0f: picked work %.0f <= cheapest arm %.0f" n work cap)
        true
        (Float.is_finite cap && work <= cap))
    pick.Attest.points;
  (* the sweeps enable tracing internally but must restore our state *)
  Alcotest.(check bool) "observability left disabled" false (Obs.enabled ());
  Alcotest.(check (list (pair string int))) "counters left clean" []
    (Obs.Counter.snapshot ())

let test_injected_fault_caught () =
  with_clean_obs @@ fun () ->
  let outcomes = Attest.run ~inject:true ~seed:7 ~tolerance:0.15 () in
  Alcotest.(check int) "ten bounds with the faults injected" 10
    (List.length outcomes);
  Alcotest.(check bool) "gate fails overall" false (Attest.all_ok outcomes);
  let faulty =
    List.find
      (fun (o : Attest.outcome) ->
        o.Attest.bound.Obs.Bound.id = "injected-superlinear")
      outcomes
  in
  Alcotest.(check bool)
    (Printf.sprintf "injected slope %.2f is ~2 against claimed 1"
       faulty.Attest.slope)
    true
    (faulty.Attest.slope > 1.5);
  let bad_pick =
    List.find
      (fun (o : Attest.outcome) ->
        o.Attest.bound.Obs.Bound.id = "injected-bad-pick")
      outcomes
  in
  Alcotest.(check bool)
    (Printf.sprintf "inverted routing slope %.2f overshoots its claim"
       bad_pick.Attest.slope)
    false
    (Attest.outcome_ok bad_pick);
  Alcotest.(check bool) "inverted routing exceeds the cheapest arm's work" false
    bad_pick.Attest.envelope_ok;
  Alcotest.(check bool) "only the injected bounds fail" true
    (List.for_all
       (fun (o : Attest.outcome) ->
         Attest.outcome_ok o
         || o.Attest.bound.Obs.Bound.id = "injected-superlinear"
         || o.Attest.bound.Obs.Bound.id = "injected-bad-pick")
       outcomes)

let test_json_document () =
  with_clean_obs @@ fun () ->
  let outcomes = Attest.run ~seed:7 ~tolerance:0.15 () in
  let doc = Attest.to_json ~seed:7 ~tolerance:0.15 outcomes in
  (* parses back under our own parser, with the fields CI consumes *)
  let parsed = Obs.Json.of_string (Obs.Json.to_string doc) in
  (match Obs.Json.member "ok" parsed with
  | Some (Obs.Json.Bool true) -> ()
  | _ -> Alcotest.fail "ok field missing or false");
  (match Obs.Json.member "bounds" parsed with
  | Some (Obs.Json.Arr bs) ->
    Alcotest.(check int) "eight bound records" 8 (List.length bs);
    List.iter
      (fun b ->
        match (Obs.Json.member "fitted_slope" b, Obs.Json.member "points" b) with
        | Some (Obs.Json.Num _), Some (Obs.Json.Arr (_ :: _)) -> ()
        | _ -> Alcotest.fail "bound record missing slope or points")
      bs
  | _ -> Alcotest.fail "bounds array missing")

let suite =
  [
    Alcotest.test_case "bound registry" `Quick test_registry;
    Alcotest.test_case "clean sweep attests all bounds" `Slow test_clean_sweep;
    Alcotest.test_case "injected superlinear fault caught" `Slow
      test_injected_fault_caught;
    Alcotest.test_case "BENCH json document" `Slow test_json_document;
  ]
