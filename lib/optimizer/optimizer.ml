(* Cost-based adaptive strategy selection.  See optimizer.mli. *)

module Engine = Treequery.Engine
module Tree = Treekit.Tree

let c_decisions = Obs.Counter.make "optimizer_decisions"
let c_explorations = Obs.Counter.make "optimizer_explorations"
let c_converged = Obs.Counter.make "optimizer_converged"

(* ------------------------------------------------------------------ *)
(* Tree statistics: the |D|-side inputs of the seeded estimates.        *)

module Stats = struct
  type t = {
    nodes : int;
    tree : Tree.t;  (* for lazy label-frequency lookups *)
  }

  let of_tree tree = { nodes = Tree.size tree; tree }

  let label_frequency t l =
    if t.nodes = 0 then 0.0
    else
      float_of_int (Array.length (Tree.occurrences t.tree l))
      /. float_of_int t.nodes
end

(* labels the query tests positively: the seed scans of a label-driven
   strategy touch only their occurrence buckets, so the rarest mentioned
   label bounds its working set.  Labels under [Not] do not narrow
   anything and are skipped. *)
let rec xpath_labels acc = function
  | Xpath.Ast.Step { Xpath.Ast.quals; _ } ->
    List.fold_left xpath_qual_labels acc quals
  | Xpath.Ast.Seq (a, b) | Xpath.Ast.Union (a, b) ->
    xpath_labels (xpath_labels acc a) b

and xpath_qual_labels acc = function
  | Xpath.Ast.Lab l -> l :: acc
  | Xpath.Ast.Exists p -> xpath_labels acc p
  | Xpath.Ast.And (a, b) | Xpath.Ast.Or (a, b) ->
    xpath_qual_labels (xpath_qual_labels acc a) b
  | Xpath.Ast.Not _ -> acc

let query_labels = function
  | Engine.Xpath_query p -> xpath_labels [] p
  | Engine.Cq_query q ->
    List.filter_map
      (function Cqtree.Query.U (Cqtree.Query.Lab l, _) -> Some l | _ -> None)
      q.Cqtree.Query.atoms
  | Engine.Datalog_query _ | Engine.Positive_query _
  | Engine.Axis_datalog_query _ -> []

let selectivity stats query =
  match query_labels query with
  | [] -> 1.0
  | ls ->
    let sel =
      List.fold_left
        (fun acc l -> Float.min acc (Stats.label_frequency stats l))
        1.0 ls
    in
    (* an absent label still costs one bucket probe; clamp away 0 *)
    Float.max sel (1.0 /. float_of_int (max 1 stats.Stats.nodes))

(* The seeded per-arm estimate: the plan's price from the engine's one
   table, discounted on label-driven rows by label selectivity — a
   label-driven pass always pays an O(n) skeleton walk, and only its
   per-|Q| re-traversals shrink with the rarest mentioned label.  The
   other rows (Horn-SAT's grounding, FO²'s n² cylinders, the fixpoint's
   rounds) touch every node whatever the labels, and keep n. *)
let estimate stats (p : Engine.prepared) =
  let n = float_of_int stats.Stats.nodes in
  let eff = n *. (0.25 +. (0.75 *. selectivity stats p.Engine.source)) in
  Engine.price p
    ~n:(if (Engine.price_row p.Engine.strategy).Engine.label_driven then eff else n)

(* ------------------------------------------------------------------ *)
(* Routing state                                                        *)

(* the plausible set: arms whose estimate is within this factor of the
   best; the rest are never explored *)
let explore_span = 16.0

(* observations of every plausible arm before an entry converges *)
let trials_needed = 2

type arm = {
  strategy : Engine.strategy;
  name : string;
  prepared : Engine.prepared;
  arm_estimate : float;
  explorable : bool;
      (* estimate within [explore_span] of the best, and admitted if
         any such arm is *)
}

(* What an entry learns is in the cost store; it memoises only whether
   that is already enough. *)
type entry = {
  canon : string;
  fp : string;
  arms : arm array;
  plausible : arm array;  (* the explorable arms, in strategy order *)
  mutable decisions : int;
  mutable converged : bool;
}

type t = {
  invert : bool;
  store : Telemetry.Cost_store.t option;
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  mutable total_decisions : int;
  mutable total_explorations : int;
}

let create ?(invert = false) ?store () =
  {
    invert;
    store;
    lock = Mutex.create ();
    entries = Hashtbl.create 64;
    total_decisions = 0;
    total_explorations = 0;
  }

let store t = t.store

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let entry_of t ~admit tree (default : Engine.prepared) =
  match Hashtbl.find_opt t.entries default.Engine.canon with
  | Some e -> e
  | None ->
    let stats = Stats.of_tree tree in
    let strategies = Engine.strategies default.Engine.source in
    let prepared_for s =
      if s = default.Engine.strategy then default
      else Engine.prepare_with s default.Engine.source
    in
    let with_estimates =
      List.map
        (fun s ->
          let p = prepared_for s in
          (s, p, estimate stats p))
        strategies
    in
    let best =
      List.fold_left (fun acc (_, _, e) -> Float.min acc e) infinity
        with_estimates
    in
    let in_span (_, _, est) = est <= best *. explore_span in
    (* an arm that admission rejects never runs, so it could never be
       observed: it is explorable only when no arm in the span passes
       admission (the shape is then rejected whatever is picked) *)
    let some_admitted =
      List.exists (fun ((_, p, _) as a) -> in_span a && admit p) with_estimates
    in
    let arms =
      Array.of_list
        (List.map
           (fun ((s, p, est) as a) ->
             {
               strategy = s;
               name = Engine.strategy_name s;
               prepared = p;
               arm_estimate = est;
               explorable = in_span a && (admit p || not some_admitted);
             })
           with_estimates)
    in
    let plausible =
      Array.of_list (List.filter (fun a -> a.explorable) (Array.to_list arms))
    in
    let e =
      {
        canon = default.Engine.canon;
        fp = default.Engine.fp;
        arms;
        plausible;
        decisions = 0;
        (* nothing to learn: one plausible arm, or no store to learn from *)
        converged = Array.length plausible <= 1 || Option.is_none t.store;
      }
    in
    Hashtbl.add t.entries default.Engine.canon e;
    e

(* an arm's observation count and latency EWMA, read from the store *)
let observations t (e : entry) (a : arm) =
  match t.store with
  | Some store ->
    Telemetry.Cost_store.observations store ~fingerprint:e.fp ~strategy:a.name
  | None -> (0, 0.0)

(* an arm's current score, as (pseudo-)latency: the store's EWMA once it
   has observed the arm, the seeded estimate converted at
   [Engine.ops_per_second] otherwise — so a store-less optimizer ranks
   by estimate *)
let score t e a =
  match observations t e a with
  | 0, _ -> a.arm_estimate /. Engine.ops_per_second
  | _, l -> l

(* set once every plausible arm has [trials_needed] observations; read
   from the store, so it flips when the last needed observation lands *)
let converged t e =
  if
    (not e.converged)
    && Array.for_all
         (fun a -> fst (observations t e a) >= trials_needed)
         e.plausible
  then begin
    e.converged <- true;
    Obs.Counter.incr c_converged
  end;
  e.converged

let argmin_by f arms =
  let best = ref arms.(0) and best_v = ref (f arms.(0)) in
  Array.iter
    (fun a ->
      let v = f a in
      if v < !best_v then begin
        best := a;
        best_v := v
      end)
    arms;
  !best

type reason =
  | Only_candidate
  | Exploring
  | Converged
  | Seeded
  | Injected_worst

let reason_to_string = function
  | Only_candidate -> "only candidate"
  | Exploring -> "exploring"
  | Converged -> "converged argmin"
  | Seeded -> "seeded estimate argmin, no observations yet"
  | Injected_worst -> "fault injection: worst arm forced"

type decision = {
  d_prepared : Engine.prepared;
  d_strategy : Engine.strategy;
  d_reason : reason;
  d_estimate : float;
  d_candidates : (string * float) list;
}

let explain_decision d =
  Printf.sprintf "%s; seeded estimate %.3g ops; candidates: %s"
    (reason_to_string d.d_reason)
    d.d_estimate
    (String.concat ", "
       (List.map (fun (n, e) -> Printf.sprintf "%s=%.3g" n e) d.d_candidates))

let decide ?(admit = fun _ -> true) t tree (default : Engine.prepared) =
  locked t @@ fun () ->
  let e = entry_of t ~admit tree default in
  e.decisions <- e.decisions + 1;
  t.total_decisions <- t.total_decisions + 1;
  Obs.Counter.incr c_decisions;
  let pick_arm, reason =
    if Array.length e.arms = 1 then (e.arms.(0), Only_candidate)
    else if t.invert then
      (* attestation fault injection: route to the most expensive
         estimate so the never-worse gate provably fires *)
      (argmin_by (fun a -> -.a.arm_estimate) e.arms, Injected_worst)
    else if converged t e then
      ( argmin_by (score t e) e.plausible,
        if Option.is_none t.store then Seeded else Converged )
    else begin
      t.total_explorations <- t.total_explorations + 1;
      Obs.Counter.incr c_explorations;
      ( argmin_by (fun a -> float_of_int (fst (observations t e a))) e.plausible,
        Exploring )
    end
  in
  (match t.store with
  | Some store ->
    Telemetry.Cost_store.record_pick store ~fingerprint:e.fp
      ~strategy:pick_arm.name
  | None -> ());
  {
    d_prepared = pick_arm.prepared;
    d_strategy = pick_arm.strategy;
    d_reason = reason;
    d_estimate = pick_arm.arm_estimate;
    d_candidates =
      Array.to_list (Array.map (fun a -> (a.name, a.arm_estimate)) e.arms);
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)

type arm_report = {
  r_strategy : string;
  r_estimate : float;
  r_trials : int;
  r_score : float;  (* what the argmin ranks by, seconds *)
  r_explorable : bool;
}

type entry_report = {
  r_fingerprint : string;
  r_canon : string;
  r_decisions : int;
  r_converged : bool;
  r_choice : string option;  (* current argmin, when converged *)
  r_arms : arm_report list;
}

let report t =
  locked t @@ fun () ->
  Hashtbl.fold
    (fun _ (e : entry) acc ->
      let converged = converged t e in
      {
        r_fingerprint = e.fp;
        r_canon = e.canon;
        r_decisions = e.decisions;
        r_converged = converged;
        r_choice =
          (if converged then Some (argmin_by (score t e) e.plausible).name
           else None);
        r_arms =
          Array.to_list
            (Array.map
               (fun a ->
                 {
                   r_strategy = a.name;
                   r_estimate = a.arm_estimate;
                   r_trials = fst (observations t e a);
                   r_score = score t e a;
                   r_explorable = a.explorable;
                 })
               e.arms);
      }
      :: acc)
    t.entries []
  |> List.sort (fun a b -> compare a.r_fingerprint b.r_fingerprint)

type stats = {
  entries : int;
  converged : int;
  decisions : int;
  explorations : int;
}

let stats t =
  locked t @@ fun () ->
  {
    entries = Hashtbl.length t.entries;
    converged =
      Hashtbl.fold
        (fun _ e acc -> if converged t e then acc + 1 else acc)
        t.entries 0;
    decisions = t.total_decisions;
    explorations = t.total_explorations;
  }

let to_json t =
  let s = stats t in
  Obs.Json.Obj
    [
      ("entries", Obs.Json.Num (float_of_int s.entries));
      ("converged", Obs.Json.Num (float_of_int s.converged));
      ("decisions", Obs.Json.Num (float_of_int s.decisions));
      ("explorations", Obs.Json.Num (float_of_int s.explorations));
      ( "fingerprints",
        Obs.Json.Arr
          (List.map
             (fun r ->
               Obs.Json.Obj
                 [
                   ("fingerprint", Obs.Json.Str r.r_fingerprint);
                   ("canon", Obs.Json.Str r.r_canon);
                   ("decisions", Obs.Json.Num (float_of_int r.r_decisions));
                   ("converged", Obs.Json.Bool r.r_converged);
                   ( "choice",
                     match r.r_choice with
                     | Some c -> Obs.Json.Str c
                     | None -> Obs.Json.Null );
                   ( "arms",
                     Obs.Json.Arr
                       (List.map
                          (fun a ->
                            Obs.Json.Obj
                              [
                                ("strategy", Obs.Json.Str a.r_strategy);
                                ("estimate", Obs.Json.Num a.r_estimate);
                                ("trials", Obs.Json.Num (float_of_int a.r_trials));
                                ("score_ms", Obs.Json.Num (a.r_score *. 1000.0));
                                ("explorable", Obs.Json.Bool a.r_explorable);
                              ])
                          r.r_arms) );
                 ])
             (report t)) );
    ]
