(* Complexity attestation: seeded scaling sweeps that check the paper's
   asymptotic claims against the counters that witness them.

   Each registered [Obs.Bound] ties a counter to the input-size term it
   must scale against and the claimed log-log slope; [run] sweeps the
   term, reads the counter at each point with observability enabled, fits
   the observed slope with [Obs.Bound.fit_slope] and flags any bound
   whose slope exceeds the claim beyond tolerance (plus, where the paper
   gives an exact envelope such as Prop. 4.2's 2·|edges|, a pointwise
   check).  The sweeps reuse the bench generators: fixed seeds make every
   point an exact machine-independent expectation. *)

module Engine = Treequery.Engine
module Generator = Treekit.Generator
module Q = Cqtree.Query

(* ------------------------------------------------------------------ *)
(* The registry: one entry per paper claim. *)

let b_datalog =
  Obs.Bound.register ~id:"datalog-grounding"
    ~claim:"Theorem 3.2: monadic datalog grounds to <= c*|D|*|Q| Horn rules"
    ~counter:"datalog_ground_rules" ~term:"|D|" ~exponent:1.0

let b_hornsat =
  Obs.Bound.register ~id:"hornsat-unit-props"
    ~claim:"Figure 3 (Minoux): unit propagation linear in program size"
    ~counter:"hornsat_unit_props" ~term:"|P| ground rules" ~exponent:1.0

let b_semijoin =
  Obs.Bound.register ~id:"semijoin-passes"
    ~claim:"Prop. 4.2 (Yannakakis): full reducer = 2*|edges| semijoin passes"
    ~counter:"semijoin_passes" ~term:"|Q| atoms" ~exponent:1.0

let b_structural =
  Obs.Bound.register ~id:"structural-join-merge"
    ~claim:"structural join: interval merge materialises O(input+output)"
    ~counter:"tuples_materialised" ~term:"input+output" ~exponent:1.0

let b_stream =
  Obs.Bound.register ~id:"stream-buffer-depth"
    ~claim:"Section 7 ([40]): streaming matcher buffers O(depth) frames"
    ~counter:"stream_peak_depth" ~term:"document depth" ~exponent:1.0

let b_plan_cache =
  Obs.Bound.register ~id:"plan-cache-lookup"
    ~claim:"serving layer: warm plan-cache lookups are O(1), misses O(shapes)"
    ~counter:"plan_cache_miss" ~term:"requests" ~exponent:0.0

let b_xpath =
  Obs.Bound.register ~id:"xpath-bottom-up"
    ~claim:"Figure 7: Core XPath bottom-up has linear data complexity"
    ~counter:"nodes_visited" ~term:"|D|" ~exponent:1.0

let b_optimizer =
  Obs.Bound.register ~id:"optimizer-pick"
    ~claim:"adaptive optimizer: the converged pick's cost is never worse than the best strategy's linear bound"
    ~counter:"optimizer_picked_cost" ~term:"|D|" ~exponent:1.0

(* ------------------------------------------------------------------ *)
(* Sweeps.  Each returns (term, counter, cap) points measured on fresh
   observability state; [read c] is the counter's value after the traced
   run, and [cap] the pointwise ceiling the claim puts on it ([infinity]
   where the paper gives none). *)

let read name =
  match List.assoc_opt name (Obs.Counter.snapshot ()) with
  | Some v -> float_of_int v
  | None -> 0.0

let traced f =
  Obs.reset ();
  Obs.with_enabled true f

let sizes = [ 2_000; 4_000; 8_000; 16_000 ]

let uncapped sweep ~seed = List.map (fun (x, y) -> (x, y, infinity)) (sweep ~seed)

let tree_of ~seed n =
  Generator.random ~seed:((seed * 1009) + (n * 13) + 1) ~n
    ~labels:Generator.labels_abc ()

let sweep_datalog ~seed =
  let p = Mdatalog.Examples.has_ancestor_labeled "b" in
  List.map
    (fun n ->
      let t = tree_of ~seed n in
      traced (fun () -> ignore (Mdatalog.Eval.run p t));
      let v = read "datalog_ground_rules" in
      Obs.reset ();
      (float_of_int n, v))
    sizes

(* same workload, but the term is the grounded program size itself: unit
   propagation must be linear in what grounding produced *)
let sweep_hornsat ~seed =
  let p = Mdatalog.Examples.has_ancestor_labeled "b" in
  List.map
    (fun n ->
      let t = tree_of ~seed n in
      traced (fun () -> ignore (Mdatalog.Eval.run p t));
      let rules = read "datalog_ground_rules" in
      let props = read "hornsat_unit_props" in
      Obs.reset ();
      (rules, props))
    sizes

(* Boolean descendant chains of growing length over a fixed document:
   the reducer runs 2 passes over the join tree's edges, so the counter
   must stay within 2*atoms pointwise (Prop. 4.2) and scale linearly in
   |Q| *)
let chain_cq k =
  let v i = Printf.sprintf "V%d" i in
  let atoms =
    List.init k (fun i -> Q.U (Q.Lab "a", v i))
    @ List.init (k - 1) (fun i -> Q.A (Treekit.Axis.Descendant, v i, v (i + 1)))
  in
  { Q.head = []; atoms }

let sweep_semijoin ~seed =
  let t = tree_of ~seed 4_000 in
  List.map
    (fun k ->
      let q = chain_cq k in
      traced (fun () -> ignore (Cqtree.Yannakakis.boolean q t));
      let v = read "semijoin_passes" in
      Obs.reset ();
      let atoms = float_of_int (Q.atom_count q) in
      (atoms, v, 2.0 *. atoms))
    (* longer chains: passes and atoms differ by an affine offset, so the
       log-log slope only converges to 1 once k dominates the constant *)
    [ 4; 8; 16; 32 ]

let sweep_structural ~seed =
  List.map
    (fun n ->
      let t = tree_of ~seed n in
      let store = Relkit.Structural_join.store t in
      let out = ref 0 in
      traced (fun () ->
          out := Relkit.Relation.cardinality (Relkit.Structural_join.descendant_view store));
      let v = read "tuples_materialised" in
      Obs.reset ();
      (float_of_int (n + !out), v))
    [ 1_000; 2_000; 4_000; 8_000 ]

let sweep_stream ~seed:_ =
  let p = Streamq.Path_pattern.of_string "//a//b" in
  List.map
    (fun depth ->
      let t = Generator.full ~fanout:2 ~depth () in
      traced (fun () ->
          ignore (Streamq.Path_matcher.run t p ~on_match:(fun _ -> ())));
      let v = read "stream_peak_depth" in
      Obs.reset ();
      (* the matcher buffers at most one frame per level *)
      let depth = float_of_int (Treekit.Tree.height t + 1) in
      (depth, v, depth))
    [ 6; 8; 10; 12 ]

(* a closed-loop warm-cache serve run: the misses are exactly the
   distinct shapes, however many requests arrive *)
let sweep_plan_cache ~seed =
  let tree = Generator.xmark ~seed:(seed + 3) ~scale:64 () in
  List.map
    (fun count ->
      let rng = Random.State.make [| seed; 0xca11 |] in
      let shapes = Serve.Workload.shapes ~rng ~count:32 in
      let reqs =
        Serve.Workload.requests ~rng ~shapes:32 ~count Serve.Workload.Closed_loop
      in
      let cache = Serve.Plan_cache.create ~capacity:64 () in
      let cfg = Serve.Server.config ~cache ~concurrency:100 ~share:true () in
      traced (fun () -> ignore (Serve.Server.run cfg tree shapes reqs));
      let v = read "plan_cache_miss" in
      Obs.reset ();
      (float_of_int count, v))
    [ 500; 1_000; 2_000; 4_000 ]

let sweep_xpath ~seed =
  let p = Xpath.Parser.parse "//a[b and not(descendant::c)]/following-sibling::*" in
  List.map
    (fun n ->
      let t = tree_of ~seed n in
      traced (fun () -> ignore (Xpath.Eval.query t p));
      let v = read "nodes_visited" in
      Obs.reset ();
      (float_of_int n, v))
    sizes

(* the adaptive optimizer's never-worse gate: converge an optimizer on a
   multi-arm XPath shape at each document size, then execute its
   converged pick and charge the elementary operations that execution
   burned to [optimizer_picked_cost].  Every plausible arm of the shape
   is linear in |D| (the quadratic FO² embedding prices itself out of
   the plausible set), so whichever arm the optimizer crowns, the fitted
   slope must stay linear; and the pick's work must not exceed the least
   work any plausible arm does on that document (the point's cap).

   Convergence is a pure function of the seed: each execution's
   counter work — the quantity the bound charges — is recorded in the
   optimizer's cost store as both its latency and its cost, and the
   store's clock is frozen so its EWMA is the plain mean. *)
let c_picked_cost = Obs.Counter.make "optimizer_picked_cost"

let sweep_optimizer_with ~invert ~sizes ~seed =
  List.map
    (fun n ->
      let t = tree_of ~seed n in
      (* built up front: a lazily-built label index would charge its
         one-time construction to whichever arm ran first *)
      Treekit.Tree.seal t;
      (* [following]: the bottom-up/Yannakakis arms stay linear per axis
         image, but the FO² embedding materialises the axis {e relation}
         — ~n²/2 Following pairs — so a forced bad pick is provably
         quadratic while the honest pick stays linear *)
      let q = Engine.parse_xpath "//a/following::b" in
      let default = Engine.prepare q in
      let store = Telemetry.Cost_store.create ~clock:(fun () -> 0.0) () in
      let opt = Optimizer.create ~invert ~store () in
      let work (p : Engine.prepared) =
        Engine.work (snd (Obs.Scope.collect "work" (fun () -> p.Engine.exec t)))
      in
      let floor =
        traced (fun () ->
            (* explore until the entry converges; the inverted optimizer
               is not driven at all — its every decision is already the
               forced worst arm, which is exactly what the fault injects *)
            let guard = ref 0 in
            while
              (not invert)
              && (Optimizer.stats opt).Optimizer.converged = 0
              && !guard < 32
            do
              incr guard;
              let d = Optimizer.decide opt t default in
              let w = float_of_int (work d.Optimizer.d_prepared) in
              ignore
                (Telemetry.Cost_store.observe store ~fingerprint:default.Engine.fp
                   ~strategy:(Engine.strategy_name d.Optimizer.d_strategy)
                   ~predicted:0.0 ~observed:w ~latency:w ~counters:[])
            done;
            let d = Optimizer.decide opt t default in
            Obs.Counter.add c_picked_cost (work d.Optimizer.d_prepared);
            (* the cap: the least work of any plausible arm *)
            List.fold_left
              (fun acc (a : Optimizer.arm_report) ->
                match Engine.strategy_of_name a.Optimizer.r_strategy with
                | Some s when a.Optimizer.r_explorable ->
                  Float.min acc (float_of_int (work (Engine.prepare_with s q)))
                | _ -> acc)
              infinity (List.hd (Optimizer.report opt)).Optimizer.r_arms)
      in
      let v = read "optimizer_picked_cost" in
      Obs.reset ();
      (float_of_int n, v, floor))
    sizes

let sweep_optimizer ~seed = sweep_optimizer_with ~invert:false ~sizes ~seed

(* --inject: a deliberately superlinear counter, proving the gate has
   teeth — its fitted slope is ~2 against a claimed exponent of 1 *)
let c_injected = Obs.Counter.make "attest_injected_work"

let injected_bound () =
  Obs.Bound.register ~id:"injected-superlinear"
    ~claim:"(fault injection) pretends quadratic work is linear"
    ~counter:"attest_injected_work" ~term:"n" ~exponent:1.0

let sweep_injected ~seed:_ =
  List.map
    (fun n ->
      traced (fun () -> Obs.Counter.add c_injected (n * n / 1_000));
      let v = read "attest_injected_work" in
      Obs.reset ();
      (float_of_int n, v))
    sizes

(* --inject, second fault: an optimizer whose every decision routes to
   the worst-estimated arm — on XPath that is the O(n²·|Q|) FO²
   embedding, so the same never-worse gate must fail, on the slope and
   on the per-size cap.  Smaller sizes: the whole point is that the
   forced arm does quadratic work. *)
let injected_pick_bound () =
  Obs.Bound.register ~id:"injected-bad-pick"
    ~claim:"(fault injection) optimizer forced onto the quadratic FO2 arm"
    ~counter:"optimizer_picked_cost" ~term:"|D|" ~exponent:1.0

let sweep_injected_pick ~seed =
  sweep_optimizer_with ~invert:true ~sizes:[ 250; 500; 1_000; 2_000 ] ~seed

(* ------------------------------------------------------------------ *)

type spec = { bound : Obs.Bound.t; sweep : seed:int -> (float * float * float) list }

let specs =
  [
    { bound = b_datalog; sweep = uncapped sweep_datalog };
    { bound = b_hornsat; sweep = uncapped sweep_hornsat };
    { bound = b_semijoin; sweep = sweep_semijoin };
    { bound = b_structural; sweep = uncapped sweep_structural };
    { bound = b_stream; sweep = sweep_stream };
    { bound = b_plan_cache; sweep = uncapped sweep_plan_cache };
    { bound = b_xpath; sweep = uncapped sweep_xpath };
    { bound = b_optimizer; sweep = sweep_optimizer };
  ]

type outcome = {
  bound : Obs.Bound.t;
  points : (float * float * float) list;
  slope : float;
  slope_ok : bool;
  envelope_ok : bool;
}

let outcome_ok o = o.slope_ok && o.envelope_ok

let run ?(inject = false) ~seed ~tolerance () =
  let was = Obs.enabled () in
  let specs =
    if inject then
      specs
      @ [
          { bound = injected_bound (); sweep = uncapped sweep_injected };
          { bound = injected_pick_bound (); sweep = sweep_injected_pick };
        ]
    else specs
  in
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled was)
    (fun () ->
      List.map
        (fun s ->
          let points = s.sweep ~seed in
          let slope = Obs.Bound.fit_slope (List.map (fun (x, y, _) -> (x, y)) points) in
          {
            bound = s.bound;
            points;
            slope;
            slope_ok = slope <= s.bound.Obs.Bound.exponent +. tolerance;
            envelope_ok = List.for_all (fun (_, y, cap) -> y <= cap) points;
          })
        specs)

let all_ok = List.for_all outcome_ok

let to_json ~seed ~tolerance outcomes =
  let point (x, y, cap) =
    Obs.Json.Obj
      ([ ("term", Obs.Json.Num x); ("counter", Obs.Json.Num y) ]
      @ if Float.is_finite cap then [ ("cap", Obs.Json.Num cap) ] else [])
  in
  Obs.Json.Obj
    [
      ("seed", Obs.Json.Num (float_of_int seed));
      ("tolerance", Obs.Json.Num tolerance);
      ("ok", Obs.Json.Bool (all_ok outcomes));
      ( "bounds",
        Obs.Json.Arr
          (List.map
             (fun o ->
               Obs.Json.Obj
                 [
                   ("id", Obs.Json.Str o.bound.Obs.Bound.id);
                   ("claim", Obs.Json.Str o.bound.Obs.Bound.claim);
                   ("counter", Obs.Json.Str o.bound.Obs.Bound.counter);
                   ("term", Obs.Json.Str o.bound.Obs.Bound.term);
                   ("claimed_exponent", Obs.Json.Num o.bound.Obs.Bound.exponent);
                   ("fitted_slope", Obs.Json.Num o.slope);
                   ("slope_ok", Obs.Json.Bool o.slope_ok);
                   ("envelope_ok", Obs.Json.Bool o.envelope_ok);
                   ("ok", Obs.Json.Bool (outcome_ok o));
                   ("points", Obs.Json.Arr (List.map point o.points));
                 ])
             outcomes) );
    ]

let to_text outcomes =
  let buf = Buffer.create 512 in
  List.iter
    (fun o ->
      Printf.bprintf buf "[%s] %-24s %-24s slope %.3f (claimed <= %.1f)%s\n"
        (if outcome_ok o then "PASS" else "FAIL")
        o.bound.Obs.Bound.id
        (Printf.sprintf "%s vs %s" o.bound.Obs.Bound.counter o.bound.Obs.Bound.term)
        o.slope o.bound.Obs.Bound.exponent
        (if o.envelope_ok then "" else "  ENVELOPE EXCEEDED");
      Printf.bprintf buf "       %s\n" o.bound.Obs.Bound.claim;
      List.iter
        (fun (x, y, cap) ->
          Printf.bprintf buf "       %12.0f -> %12.0f%s\n" x y
            (if Float.is_finite cap then Printf.sprintf "  (cap %.0f)" cap else ""))
        o.points)
    outcomes;
  Printf.bprintf buf "%d/%d bounds attested\n"
    (List.length (List.filter outcome_ok outcomes))
    (List.length outcomes);
  Buffer.contents buf
