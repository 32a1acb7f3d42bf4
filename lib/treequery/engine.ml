module Tree = Treekit.Tree
module Nodeset = Treekit.Nodeset

type query =
  | Xpath_query of Xpath.Ast.path
  | Cq_query of Cqtree.Query.t
  | Datalog_query of Mdatalog.Ast.program
  | Positive_query of Cqtree.Positive.t
  | Axis_datalog_query of Mdatalog.Axis_datalog.program

let parse_xpath s = Xpath_query (Xpath.Parser.parse s)
let parse_cq s = Cq_query (Cqtree.Query.of_string s)
let parse_datalog s = Datalog_query (Mdatalog.Parser.parse s)
let parse_positive ss = Positive_query (Cqtree.Positive.of_strings ss)
let parse_axis_datalog s = Axis_datalog_query (Mdatalog.Axis_datalog.parse s)

type strategy =
  | Xpath_bottom_up
  | Cq_yannakakis
  | Cq_arc_consistency
  | Cq_rewrite
  | Datalog_hornsat
  | Positive_rewrite
  | Datalog_fixpoint
  | Xpath_fo2

let strategy_name = function
  | Xpath_bottom_up -> "xpath-bottom-up"
  | Cq_yannakakis -> "yannakakis"
  | Cq_arc_consistency -> "arc-consistency"
  | Cq_rewrite -> "rewrite-to-acyclic"
  | Datalog_hornsat -> "datalog-hornsat"
  | Positive_rewrite -> "positive-union-rewrite"
  | Datalog_fixpoint -> "datalog-yannakakis-fixpoint"
  | Xpath_fo2 -> "xpath-fo2"

let all_strategies =
  [
    Xpath_bottom_up; Cq_yannakakis; Cq_arc_consistency; Cq_rewrite;
    Datalog_hornsat; Positive_rewrite; Datalog_fixpoint; Xpath_fo2;
  ]

let strategy_of_name s =
  List.find_opt (fun st -> strategy_name st = s) all_strategies

let plan = function
  | Xpath_query _ -> Xpath_bottom_up
  | Datalog_query _ -> Datalog_hornsat
  | Positive_query _ -> Positive_rewrite
  | Axis_datalog_query _ -> Datalog_fixpoint
  | Cq_query q ->
    if Cqtree.Join_tree.is_acyclic q then Cq_yannakakis
    else if Actree.Xeval.supported q <> None then Cq_arc_consistency
    else Cq_rewrite

(* Every strategy able to answer the query, planner default first.  An
   XPath query has up to four interchangeable engines (the optimizer's
   arms): the bottom-up evaluator, monadic datalog via the Section 3
   translation, Yannakakis when the path is conjunctive (Prop. 4.2), and
   FO² (Marx / Section 4, O(n²·|Q|) — dominated on large documents, but
   a genuine candidate on small ones).  A CQ has the three Section 4–6
   engines where applicable; the remaining languages have exactly one
   evaluator. *)
let strategies query =
  let default = plan query in
  let extras =
    match query with
    | Xpath_query p ->
      (match Xpath.To_cq.to_query p with
      | Some cq when Cqtree.Join_tree.is_acyclic cq -> [ Cq_yannakakis ]
      | _ -> [])
      @ [ Datalog_hornsat; Xpath_fo2 ]
    | Cq_query q ->
      List.filter
        (fun s -> s <> default)
        ((if Cqtree.Join_tree.is_acyclic q then [ Cq_yannakakis ] else [])
        @ (if Actree.Xeval.supported q <> None then [ Cq_arc_consistency ]
           else [])
        @ [ Cq_rewrite ])
    | Datalog_query _ | Positive_query _ | Axis_datalog_query _ -> []
  in
  default :: extras

(* the |Q| term of the paper's bounds: syntactic size of the query *)
let query_size = function
  | Xpath_query p -> Xpath.Ast.size p
  | Cq_query q -> Cqtree.Query.atom_count q + List.length (Cqtree.Query.vars q)
  | Positive_query u ->
    List.fold_left
      (fun a q -> a + Cqtree.Query.atom_count q)
      (List.length u.Cqtree.Positive.disjuncts)
      u.Cqtree.Positive.disjuncts
  | Datalog_query p ->
    List.fold_left
      (fun a r -> a + 1 + List.length r.Mdatalog.Ast.body)
      0 p.Mdatalog.Ast.rules
  | Axis_datalog_query p ->
    List.fold_left
      (fun a r -> a + 1 + List.length r.Mdatalog.Axis_datalog.body)
      0 p.Mdatalog.Axis_datalog.rules

(* ------------------------------------------------------------------ *)
(* The price table: one row per strategy, read by admission control,
   the residual, fault injection, the optimizer's seed and [explain].

   A row's price, [per_unit × shape(n, |Q|)] with n = |D| and |Q| the
   plan's size term ({!prepared}[.size]), bounds the counted work of
   one [exec] or [exec_boolean] — the sum of the counter increments it
   makes, including its [strategy_runs_*] bump — for n, |Q| ≥ 1.  Each
   constant is read off the counters its evaluator bumps, not fitted;
   the [price-covers-work] oracle checks the claim.  Shared facts:
   an axis image ([Treekit.Axis.image]/[image_within]) counts at most
   n [nodes_visited] plus one kernel counter; a Horn-SAT run counts
   one [hornsat_units_derived] per derived ground head and one
   [hornsat_unit_props] per ground body atom. *)

type shape = N_Q | N2_Q | N3_Q | N2_Q2

type price_row = {
  shape : shape;
  per_unit : int;
  label_driven : bool;
  citation : string;
}

let row shape per_unit label_driven citation = { shape; per_unit; label_driven; citation }

let price_row = function
  | Xpath_bottom_up ->
    (* one axis image per location step, each step 1 in |Q|:
       (n + 1)·|Q| + 1 ≤ 3·n·|Q| *)
    row N_Q 3 true "O(n * |Q|): one O(n) axis image per step (Fig. 7)"
  | Cq_yannakakis ->
    (* a bottom-up pass: ≤ n retained nodes per variable, one semijoin
       and one axis image per join-tree edge, (n + 2)·|Q| + 1 ≤ 4·n·|Q|;
       an XPath path translates to s + 1 variables and s edges for its
       s ≤ |Q| steps, (2s + 1)·n + 2s + 1 ≤ 6·n·|Q| *)
    row N_Q 6 true "O(||A|| * |Q|): one semijoin pass per join-tree edge (Yannakakis, Prop. 4.2)"
  | Cq_arc_consistency ->
    (* a Boolean check visits a variable again only when its domain
       shrinks, ≤ n + 1 visits of one axis image per incident atom end:
       ≤ 2B(n + 1)(n + 2) + V·n; a unary query runs one check per head
       candidate plus one: ≤ 25·n³·|Q| (B + V ≤ |Q|) *)
    row N3_Q 25 true
      "O(|A| * ||A|| * |Q|), ||A|| <= n^2 on the tree axes: one Boolean \
       arc-consistency check per head candidate (Theorem 6.5)"
  | Cq_rewrite ->
    (* Yannakakis on each acyclic disjunct: (n + 2)·|Q'| + 1 ≤ 4·n·|Q'| *)
    row N_Q 4 true "O(n * |Q'|), Q' the acyclic union of Theorem 5.1 (exponential in |Q|)"
  | Datalog_hornsat ->
    (* every rule the Section 3 translation (or TMNF) emits grounds to
       ≤ n rules with ≤ 2 body atoms: ≤ 4n counted per rule.  A step
       emits ≤ 7 rules (following/preceding), a qualifier ≤ 2 more plus
       the path it wraps: ≤ 27n per unit of |Q|, plus the context rule,
       ≤ 30·n·|Q|; TMNF turns a native rule into ≤ 5·(1 + |body|) *)
    row N_Q 30 false "O(|P| * |Dom|): ground, then Minoux's linear Horn-SAT (Theorem 3.2)"
  | Positive_rewrite ->
    (* as [Cq_rewrite], over the union of every disjunct's rewrite *)
    row N_Q 4 true
      "O(n * |Q'|), Q' the acyclic union of the disjuncts' rewrites: \
       O(||A||) for fixed queries (Corollary 5.2)"
  | Datalog_fixpoint ->
    (* ≤ 1 + n·|P| rounds (each adds a node to one of ≤ |Q|/2 heads),
       each one Yannakakis pass per rule, ≤ 10·n·|Q|: ≤ 16·n²·|Q|² *)
    row N2_Q2 16 false
      "O(n^2 * |Q|^2): naive rounds of one Yannakakis pass per rule (Fig. 7 mon.datalog[X])"
  | Xpath_fo2 ->
    (* every subformula materialises ≤ 8·n² rows (two variables; an
       or/not cylindrifies), the answer ≤ 2·n² more: ≤ 11·n²·|phi| *)
    row N2_Q 11 false "O(n^2 * |phi|), phi the FO2 translation of Q (Marx; Section 4)"

(* ------------------------------------------------------------------ *)
(* Canonical forms and fingerprints (the plan-cache key).               *)

(* Re-associate the Seq/Union spines to the right and canonicalize
   qualifiers, so `(a/b)/c` and `a/(b/c)` — same query, different parse
   trees — print identically.  Top-level `and`s inside a qualifier are
   folded into the step's qualifier list (`a[p and q]` ≡ `a[p][q]`). *)
let rec canon_path = function
  | Xpath.Ast.Step s -> Xpath.Ast.Step (canon_step s)
  | Xpath.Ast.Seq (a, b) -> seq_right (canon_path a) (canon_path b)
  | Xpath.Ast.Union (a, b) -> union_right (canon_path a) (canon_path b)

and seq_right a b =
  match a with
  | Xpath.Ast.Seq (x, y) -> Xpath.Ast.Seq (x, seq_right y b)
  | _ -> Xpath.Ast.Seq (a, b)

and union_right a b =
  match a with
  | Xpath.Ast.Union (x, y) -> Xpath.Ast.Union (x, union_right y b)
  | _ -> Xpath.Ast.Union (a, b)

and canon_step { Xpath.Ast.axis; quals } =
  { Xpath.Ast.axis; quals = List.concat_map flatten_and (List.map canon_qual quals) }

and flatten_and = function
  | Xpath.Ast.And (a, b) -> flatten_and a @ flatten_and b
  | q -> [ q ]

and canon_qual = function
  | Xpath.Ast.Exists p -> Xpath.Ast.Exists (canon_path p)
  | Xpath.Ast.Lab l -> Xpath.Ast.Lab l
  | Xpath.Ast.And (a, b) -> and_right (canon_qual a) (canon_qual b)
  | Xpath.Ast.Or (a, b) -> or_right (canon_qual a) (canon_qual b)
  | Xpath.Ast.Not q -> Xpath.Ast.Not (canon_qual q)

and and_right a b =
  match a with
  | Xpath.Ast.And (x, y) -> Xpath.Ast.And (x, and_right y b)
  | _ -> Xpath.Ast.And (a, b)

and or_right a b =
  match a with
  | Xpath.Ast.Or (x, y) -> Xpath.Ast.Or (x, or_right y b)
  | _ -> Xpath.Ast.Or (a, b)

(* alpha-rename to v0, v1, … in order of first appearance (head first) *)
let canon_cq q =
  let map =
    List.mapi (fun i v -> (v, "v" ^ string_of_int i)) (Cqtree.Query.vars q)
  in
  Cqtree.Query.rename (fun v -> List.assoc v map) q

(* per-rule alpha-renaming for monadic datalog over tau+ *)
let canon_datalog_rule (r : Mdatalog.Ast.rule) =
  let map = ref [] in
  let fresh v =
    match List.assoc_opt v !map with
    | Some v' -> v'
    | None ->
      let v' = "v" ^ string_of_int (List.length !map) in
      map := (v, v') :: !map;
      v'
  in
  let head_var = fresh r.Mdatalog.Ast.head_var in
  let body =
    List.map
      (function
        | Mdatalog.Ast.U (u, x) -> Mdatalog.Ast.U (u, fresh x)
        | Mdatalog.Ast.B (b, x, y) ->
          let x = fresh x in
          Mdatalog.Ast.B (b, x, fresh y))
      r.Mdatalog.Ast.body
  in
  { r with Mdatalog.Ast.head_var; body }

(* an axis-datalog rule body is a CQ atom list: reuse the CQ renamer by
   wrapping it in a throwaway query *)
let canon_axis_rule (r : Mdatalog.Axis_datalog.rule) =
  let q =
    canon_cq
      { Cqtree.Query.head = [ r.Mdatalog.Axis_datalog.head_var ];
        atoms = r.Mdatalog.Axis_datalog.body }
  in
  Printf.sprintf "%s(%s)%s" r.Mdatalog.Axis_datalog.head
    (List.hd q.Cqtree.Query.head)
    (Cqtree.Query.to_string q)

let canonical = function
  | Xpath_query p -> "xpath|" ^ Xpath.Ast.to_string (canon_path p)
  | Cq_query q -> "cq|" ^ Cqtree.Query.to_string (canon_cq q)
  | Positive_query u ->
    "positive|"
    ^ String.concat " | "
        (List.map
           (fun d -> Cqtree.Query.to_string (canon_cq d))
           u.Cqtree.Positive.disjuncts)
  | Datalog_query p ->
    "datalog|"
    ^ Format.asprintf "%a" Mdatalog.Ast.pp_program
        { p with Mdatalog.Ast.rules = List.map canon_datalog_rule p.rules }
  | Axis_datalog_query p ->
    "axis-datalog|"
    ^ String.concat " "
        (List.map canon_axis_rule p.Mdatalog.Axis_datalog.rules)
    ^ " ?- " ^ p.Mdatalog.Axis_datalog.query

(* 64-bit FNV-1a: stable across runs and word sizes, unlike Hashtbl.hash *)
let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let fingerprint q =
  let c = canonical q in
  let lang = String.sub c 0 (String.index c '|') in
  Printf.sprintf "%s:%016Lx" lang (fnv1a64 c)

let shape_to_string = function
  | N_Q -> "n*|Q|"
  | N2_Q -> "n^2*|Q|"
  | N3_Q -> "n^3*|Q|"
  | N2_Q2 -> "n^2*|Q|^2"

let explain ?auto ?observed ?plan_cache query =
  let buf = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match query with
  | Xpath_query p ->
    pr "language:    Core XPath\n";
    pr "query:       %s\n" (Xpath.Ast.to_string p);
    pr "size |Q|:    %d\n" (Xpath.Ast.size p);
    pr "fragment:    %s%s%s\n"
      (if Xpath.Ast.is_conjunctive p then "conjunctive "
       else if Xpath.Ast.is_positive p then "positive "
       else "full ")
      (if Xpath.Ast.is_forward p then "forward " else "")
      "Core XPath"
  | Datalog_query p ->
    pr "language:    monadic datalog over tau+\n";
    pr "rules:       %d (query predicate %s)\n" (List.length p.rules) p.query;
    pr "tmnf:        %b\n" (Mdatalog.Tmnf.is_tmnf p)
  | Positive_query u ->
    pr "language:    positive FO (union of %d conjunctive queries)\n"
      (List.length u.Cqtree.Positive.disjuncts);
    pr "arity:       %d\n" u.Cqtree.Positive.arity
  | Axis_datalog_query p ->
    pr "language:    monadic datalog over axis relations\n";
    pr "rules:       %d (query predicate %s)\n"
      (List.length p.Mdatalog.Axis_datalog.rules) p.Mdatalog.Axis_datalog.query
  | Cq_query q ->
    pr "language:    conjunctive query\n";
    pr "query:       %s\n" (Cqtree.Query.to_string q);
    pr "variables:   %d, atoms: %d\n"
      (List.length (Cqtree.Query.vars q))
      (Cqtree.Query.atom_count q);
    let acyclic = Cqtree.Join_tree.is_acyclic q in
    pr "acyclic:     %b\n" acyclic;
    if not acyclic then
      pr "tree-width:  %d (min-fill upper bound)\n" (Cqtree.Qgraph.treewidth_upper q);
    (match Actree.Xeval.supported q with
    | Some kind ->
      pr "x-property:  signature tractable w.r.t. <%s (Prop. 6.6)\n"
        (Treekit.Order.kind_name kind)
    | None -> pr "x-property:  signature not within tau1/tau2/tau3\n"));
  let strat = plan query in
  let row = price_row strat in
  pr "strategy:    %s\n" (strategy_name strat);
  pr "bound:       %d*%s ops, %s\n" row.per_unit (shape_to_string row.shape)
    row.citation;
  (* the interchangeable engines an adaptive (`Auto`) run may pick from *)
  (match strategies query with
  | [] | [ _ ] -> ()
  | cands ->
    pr "candidates:  %s\n" (String.concat ", " (List.map strategy_name cands)));
  (match auto with
  | None -> ()
  | Some (picked, why) -> pr "auto-pick:   %s (%s)\n" (strategy_name picked) why);
  pr "fingerprint: %s\n" (fingerprint query);
  (match plan_cache with
  | None -> ()
  | Some `Hit -> pr "plan-cache:  hit\n"
  | Some `Miss -> pr "plan-cache:  miss\n");
  (* after a traced run, show what the strategy actually did so the
     bound above can be checked against observed work *)
  let report =
    match observed with Some r -> r | None -> Obs.Report.capture ()
  in
  if report.Obs.Report.counters <> [] then begin
    pr "observed:\n";
    List.iter
      (fun (name, v) -> pr "  %-28s %d\n" name v)
      report.Obs.Report.counters
  end;
  (* scoped-collection profiles (one per served request when the serving
     layer ran): which part of the observed work each region did *)
  if report.Obs.Report.profiles <> [] then begin
    pr "profiles:\n";
    List.iter
      (fun (p : Obs.profile) ->
        pr "  %-28s %.3f ms%s\n" p.Obs.profile_label
          (p.Obs.profile_duration *. 1000.0)
          (match List.assoc_opt "fingerprint" p.Obs.profile_attrs with
          | Some a -> "  [" ^ Obs.attr_to_string a ^ "]"
          | None -> "");
        List.iter
          (fun (name, v) -> pr "    %-28s %d\n" name v)
          p.Obs.profile_counters)
      report.Obs.Report.profiles
  end;
  Buffer.contents buf

(* Span attributes tying a measurement to its inputs: |D|, |Q|, the
   chosen strategy and the plan fingerprint.  Only computed when
   observability is enabled — fingerprinting canonicalizes the query,
   which must not tax an untraced hot path. *)
let strategy_attrs tree query strategy =
  if not (Obs.enabled ()) then []
  else
    [
      ("strategy", Obs.Str (strategy_name strategy));
      ("|Q|", Obs.Int (query_size query));
      ("fingerprint", Obs.Str (fingerprint query));
      ("|D|", Obs.Int (Tree.size tree));
    ]

(* one registered counter per strategy, bumped at every strategy-span
   entry: an [Obs.Scope] profile's counter deltas then carry the
   strategy tag intrinsically ([strategy_runs_<name>]), so the serving
   layer's telemetry can attribute work to a strategy even from a bare
   profile with no attrs *)
let strategy_counter =
  let counter_of name =
    Obs.Counter.make
      ("strategy_runs_" ^ String.map (fun c -> if c = '-' then '_' else c) name)
  in
  let counters =
    List.map (fun s -> (s, counter_of (strategy_name s))) all_strategies
  in
  fun strategy -> List.assq strategy counters

(* one span per strategy run, so a traced evaluation shows up as
   [strategy:<name>] with the per-phase spans of the underlying
   algorithm nested below it *)
let in_strategy_span tree query strategy f =
  Obs.Span.with_
    ~attrs:(strategy_attrs tree query strategy)
    ("strategy:" ^ strategy_name strategy)
    (fun () ->
      Obs.Counter.incr (strategy_counter strategy);
      f ())

let root_if tree b =
  let s = Nodeset.create (Tree.size tree) in
  if b then Nodeset.add s (Tree.root tree);
  s

(* [exec] answers the first head column, so a k-ary query is evaluated
   as its unary projection: the O(|A|^k) tuple enumeration is left to
   {!solutions} *)
let project q =
  match q.Cqtree.Query.head with
  | h :: _ :: _ -> { q with Cqtree.Query.head = [ h ] }
  | _ -> q

(* Yannakakis or arc consistency on one CQ *)
let cq_plan strategy q =
  let sat tree =
    if strategy = Cq_arc_consistency then Actree.Xeval.boolean q tree = Some true
    else Cqtree.Yannakakis.boolean q tree
  in
  let q1 = project q in
  let exec tree =
    if Cqtree.Query.is_boolean q then root_if tree (sat tree)
    else if strategy = Cq_arc_consistency then begin
      let s = Nodeset.create (Tree.size tree) in
      List.iter (fun t -> Nodeset.add s t.(0)) (Option.get (Actree.Xeval.solutions q1 tree));
      s
    end
    else Cqtree.Yannakakis.unary q1 tree
  in
  (exec, sat)

(* a union of acyclic queries (Theorem 5.1's output), each answered by
   Yannakakis; its size term is the union's total size *)
let union_plan ~boolean queries =
  let sat tree = List.exists (fun q' -> Cqtree.Yannakakis.boolean q' tree) queries in
  let exec tree =
    if boolean then root_if tree (sat tree)
    else begin
      let out = Nodeset.create (Tree.size tree) in
      List.iter (fun q' -> Nodeset.union_into out (Cqtree.Yannakakis.unary q' tree)) queries;
      out
    end
  in
  (List.fold_left (fun a q' -> a + query_size (Cq_query q')) 0 queries, exec, sat)

let rewritten q = (Cqtree.Rewrite.rewrite (project q)).Cqtree.Rewrite.queries

(* ------------------------------------------------------------------ *)
(* Prepared plans: the planning decision — and, for the rewrite
   strategies, the exponential-in-|Q| union of acyclic queries — is
   computed once, so a cached plan pays only evaluation on reuse. *)

type prepared = {
  source : query;
  strategy : strategy;
  canon : string;
  fp : string;
  size : int;
  exec : Tree.t -> Nodeset.t;
  exec_boolean : Tree.t -> bool;
}

(* the plan's size term and its unwrapped [exec] / [exec_boolean] *)
let compile strategy query =
  let sized exec = (query_size query, exec, fun tree -> not (Nodeset.is_empty (exec tree))) in
  match (query, strategy) with
  | Cq_query q, Cq_rewrite -> union_plan ~boolean:(Cqtree.Query.is_boolean q) (rewritten q)
  | Cq_query q, _ ->
    let exec, sat = cq_plan strategy q in
    (query_size query, exec, sat)
  | Positive_query u, _ ->
    union_plan ~boolean:(u.Cqtree.Positive.arity = 0)
      (List.concat_map rewritten u.Cqtree.Positive.disjuncts)
  | Xpath_query p, Xpath_bottom_up -> sized (fun tree -> Xpath.Eval.query tree p)
  | Xpath_query p, Cq_yannakakis ->
    (* conjunctive path → acyclic CQ (Prop. 4.2): [strategies] only
       offers this arm when the translation exists *)
    let exec, sat = cq_plan Cq_yannakakis (Option.get (Xpath.To_cq.to_query p)) in
    (query_size query, exec, sat)
  | Xpath_query p, Datalog_hornsat -> sized (fun tree -> Xpath.To_datalog.eval_via_datalog tree p)
  | Xpath_query p, _ ->
    (* the FO² arm: translate once (Marx); evaluation is the naive
       O(n²·|phi|) pass, so the size term is the formula's *)
    let phi = Folang.Of_xpath.unary p and psi = Folang.Of_xpath.boolean p in
    ( Folang.Formula.size psi,
      (fun tree -> Folang.Eval.unary tree phi),
      fun tree -> Folang.Eval.holds tree psi )
  | Datalog_query p, _ ->
    (* Theorem 3.2's linear grounding is for TMNF programs; a
       malformed program is left for [Eval.run] to reject *)
    let p = if Mdatalog.Ast.check p = Ok () then Mdatalog.Tmnf.of_program p else p in
    sized (Mdatalog.Eval.run p)
  | Axis_datalog_query p, _ -> sized (Mdatalog.Axis_datalog.run p)

let prepare_with strategy query =
  if not (List.mem strategy (strategies query)) then
    invalid_arg
      (Printf.sprintf "Engine.prepare_with: %s cannot evaluate %s"
         (strategy_name strategy) (fingerprint query));
  let size, exec, exec_boolean = compile strategy query in
  let span f tree = in_strategy_span tree query strategy (fun () -> f tree) in
  {
    source = query;
    strategy;
    canon = canonical query;
    fp = fingerprint query;
    size;
    exec = span exec;
    exec_boolean = span exec_boolean;
  }

let prepare query = prepare_with (plan query) query

let with_exec p exec = { p with exec }

(* [prepare]'s plan, without the canonical form a one-off run has no use for *)
let eval query tree =
  let strategy = plan query in
  let _, exec, _ = compile strategy query in
  in_strategy_span tree query strategy (fun () -> exec tree)

let eval_boolean query tree =
  let strategy = plan query in
  let _, _, exec_boolean = compile strategy query in
  in_strategy_span tree query strategy (fun () -> exec_boolean tree)

let solutions query tree =
  match query with
  | Cq_query q ->
    let strategy = plan query in
    in_strategy_span tree query strategy @@ fun () ->
    (match strategy with
    | Cq_yannakakis -> Cqtree.Yannakakis.solutions q tree
    | Cq_arc_consistency -> Option.get (Actree.Xeval.solutions q tree)
    | _ -> Cqtree.Rewrite.solutions q tree)
  | Positive_query u ->
    in_strategy_span tree query Positive_rewrite @@ fun () ->
    Cqtree.Positive.solutions u tree
  | Xpath_query _ | Datalog_query _ | Axis_datalog_query _ ->
    List.map (fun v -> [| v |]) (Nodeset.elements (eval query tree))

(* ------------------------------------------------------------------ *)
(* Pricing *)

let ops_per_second = 5e7

let price (p : prepared) ~n =
  let row = price_row p.strategy in
  let n = Float.max 1.0 n and q = float_of_int (max 1 p.size) in
  float_of_int row.per_unit
  *.
  match row.shape with
  | N_Q -> n *. q
  | N2_Q -> n *. n *. q
  | N3_Q -> n *. n *. n *. q
  | N2_Q2 -> n *. n *. q *. q

let work (profile : Obs.profile) =
  List.fold_left
    (fun acc (_, d) -> if d > 0 then acc + d else acc)
    0 profile.Obs.profile_counters
