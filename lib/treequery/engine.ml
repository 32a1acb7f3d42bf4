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

let strategy_of_name s =
  List.find_opt
    (fun st -> strategy_name st = s)
    [
      Xpath_bottom_up; Cq_yannakakis; Cq_arc_consistency; Cq_rewrite;
      Datalog_hornsat; Positive_rewrite; Datalog_fixpoint; Xpath_fo2;
    ]

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
  | Axis_datalog_query p -> 1 + List.length p.Mdatalog.Axis_datalog.rules

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
      "Core XPath";
    pr "strategy:    %s\n" (strategy_name Xpath_bottom_up);
    pr "bound:       O(n * |Q|) per axis image; linear data complexity (Fig. 7)\n"
  | Datalog_query p ->
    pr "language:    monadic datalog over tau+\n";
    pr "rules:       %d (query predicate %s)\n" (List.length p.rules) p.query;
    pr "tmnf:        %b\n" (Mdatalog.Tmnf.is_tmnf p);
    pr "strategy:    %s\n" (strategy_name Datalog_hornsat);
    pr "bound:       O(|P| * |Dom|) combined complexity (Theorem 3.2)\n"
  | Positive_query u ->
    pr "language:    positive FO (union of %d conjunctive queries)\n"
      (List.length u.Cqtree.Positive.disjuncts);
    pr "arity:       %d\n" u.Cqtree.Positive.arity;
    pr "strategy:    %s\n" (strategy_name Positive_rewrite);
    pr "bound:       O(||A||) for fixed queries (Corollary 5.2)\n"
  | Axis_datalog_query p ->
    pr "language:    monadic datalog over axis relations\n";
    pr "rules:       %d (query predicate %s)\n"
      (List.length p.Mdatalog.Axis_datalog.rules) p.Mdatalog.Axis_datalog.query;
    pr "strategy:    %s\n" (strategy_name Datalog_fixpoint);
    pr "bound:       O(||A|| * |rule|) per pass (Section 7 remark; Fig. 7 mon.datalog[X])\n"
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
    | None -> pr "x-property:  signature not within tau1/tau2/tau3\n");
    let strat = plan query in
    pr "strategy:    %s\n" (strategy_name strat);
    pr "bound:       %s\n"
      (match strat with
      | Cq_yannakakis -> "O(||A|| * |Q|) (Yannakakis, Prop. 4.2)"
      | Cq_arc_consistency -> "O(||A|| * |Q|) Boolean/unary (Theorem 6.5)"
      | Cq_rewrite ->
        "exponential in |Q| to rewrite (Theorem 5.1), then O(||A|| * |Q'|) per branch"
      | Xpath_bottom_up | Datalog_hornsat | Positive_rewrite | Datalog_fixpoint
      | Xpath_fo2 ->
        assert false));
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
let strategy_attrs ?tree query strategy =
  if not (Obs.enabled ()) then []
  else
    [
      ("strategy", Obs.Str (strategy_name strategy));
      ("|Q|", Obs.Int (query_size query));
      ("fingerprint", Obs.Str (fingerprint query));
    ]
    @
    match tree with
    | Some t -> [ ("|D|", Obs.Int (Tree.size t)) ]
    | None -> []

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
    List.map
      (fun s -> (s, counter_of (strategy_name s)))
      [
        Xpath_bottom_up; Cq_yannakakis; Cq_arc_consistency; Cq_rewrite;
        Datalog_hornsat; Positive_rewrite; Datalog_fixpoint; Xpath_fo2;
      ]
  in
  fun strategy -> List.assq strategy counters

(* one span per strategy run, so a traced evaluation shows up as
   [strategy:<name>] with the per-phase spans of the underlying
   algorithm nested below it *)
let in_strategy_span ?tree query f =
  let strategy = plan query in
  Obs.Span.with_
    ~attrs:(strategy_attrs ?tree query strategy)
    ("strategy:" ^ strategy_name strategy)
    (fun () ->
      Obs.Counter.incr (strategy_counter strategy);
      f ())

let eval_cq_with strategy q tree =
  match strategy with
  | Cq_yannakakis ->
    if Cqtree.Query.is_unary q then Cqtree.Yannakakis.unary q tree
    else
      let sat = Cqtree.Yannakakis.boolean q tree in
      if Cqtree.Query.is_boolean q then begin
        let s = Nodeset.create (Tree.size tree) in
        if sat then Nodeset.add s (Tree.root tree);
        s
      end
      else begin
        let s = Nodeset.create (Tree.size tree) in
        List.iter (fun t -> Nodeset.add s t.(0)) (Cqtree.Yannakakis.solutions q tree);
        s
      end
  | Cq_arc_consistency ->
    if Cqtree.Query.is_boolean q then begin
      let s = Nodeset.create (Tree.size tree) in
      (match Actree.Xeval.boolean q tree with
      | Some true -> Nodeset.add s (Tree.root tree)
      | Some false | None -> ());
      s
    end
    else begin
      match Actree.Xeval.solutions q tree with
      | Some sols ->
        let s = Nodeset.create (Tree.size tree) in
        List.iter (fun t -> Nodeset.add s t.(0)) sols;
        s
      | None -> assert false
    end
  | Cq_rewrite ->
    if Cqtree.Query.is_unary q then Cqtree.Rewrite.unary q tree
    else if Cqtree.Query.is_boolean q then begin
      let s = Nodeset.create (Tree.size tree) in
      if Cqtree.Rewrite.boolean q tree then Nodeset.add s (Tree.root tree);
      s
    end
    else begin
      let s = Nodeset.create (Tree.size tree) in
      List.iter (fun t -> Nodeset.add s t.(0)) (Cqtree.Rewrite.solutions q tree);
      s
    end
  | Xpath_bottom_up | Datalog_hornsat | Positive_rewrite | Datalog_fixpoint
  | Xpath_fo2 ->
    assert false

let eval_cq q tree = eval_cq_with (plan (Cq_query q)) q tree

(* unwrapped body shared by [eval] and the non-CQ fall-through branches
   of [eval_boolean]/[solutions], so a run opens exactly one strategy
   span *)
let eval_inner query tree =
  match query with
  | Xpath_query p -> Xpath.Eval.query tree p
  | Datalog_query p -> Mdatalog.Eval.run p tree
  | Axis_datalog_query p -> Mdatalog.Axis_datalog.run p tree
  | Positive_query u ->
    if u.Cqtree.Positive.arity = 1 then Cqtree.Positive.unary u tree
    else begin
      let s = Nodeset.create (Tree.size tree) in
      if u.Cqtree.Positive.arity = 0 then begin
        if Cqtree.Positive.boolean u tree then Nodeset.add s (Tree.root tree)
      end
      else
        List.iter (fun t -> Nodeset.add s t.(0)) (Cqtree.Positive.solutions u tree);
      s
    end
  | Cq_query q -> eval_cq q tree

let eval query tree = in_strategy_span ~tree query (fun () -> eval_inner query tree)

let boolean_cq_with strategy q tree =
  match strategy with
  | Cq_yannakakis -> Cqtree.Yannakakis.boolean q tree
  | Cq_arc_consistency -> (
    match Actree.Xeval.boolean q tree with Some b -> b | None -> assert false)
  | Cq_rewrite -> Cqtree.Rewrite.boolean q tree
  | Xpath_bottom_up | Datalog_hornsat | Positive_rewrite | Datalog_fixpoint
  | Xpath_fo2 ->
    assert false

let eval_boolean query tree =
  in_strategy_span ~tree query @@ fun () ->
  match query with
  | Cq_query q -> boolean_cq_with (plan query) q tree
  | Positive_query u -> Cqtree.Positive.boolean u tree
  | Xpath_query _ | Datalog_query _ | Axis_datalog_query _ ->
    not (Nodeset.is_empty (eval_inner query tree))

let solutions query tree =
  in_strategy_span ~tree query @@ fun () ->
  match query with
  | Cq_query q -> (
    match plan query with
    | Cq_yannakakis -> Cqtree.Yannakakis.solutions q tree
    | Cq_arc_consistency -> (
      match Actree.Xeval.solutions q tree with Some s -> s | None -> assert false)
    | Cq_rewrite -> Cqtree.Rewrite.solutions q tree
    | Xpath_bottom_up | Datalog_hornsat | Positive_rewrite | Datalog_fixpoint
    | Xpath_fo2 ->
      assert false)
  | Positive_query u -> Cqtree.Positive.solutions u tree
  | Xpath_query _ | Datalog_query _ | Axis_datalog_query _ ->
    List.map (fun v -> [| v |]) (Nodeset.elements (eval_inner query tree))

(* ------------------------------------------------------------------ *)
(* Prepared plans: the planning decision — and, for the rewrite
   strategy, the exponential-in-|Q| union of acyclic queries — is
   computed once, so a cached plan pays only evaluation on reuse. *)

type prepared = {
  source : query;
  strategy : strategy;
  canon : string;
  fp : string;
  exec : Tree.t -> Nodeset.t;
  exec_boolean : Tree.t -> bool;
}

let prepare_with strategy query =
  if not (List.mem strategy (strategies query)) then
    invalid_arg
      (Printf.sprintf "Engine.prepare_with: %s cannot evaluate %s"
         (strategy_name strategy) (fingerprint query));
  let span f tree =
    Obs.Span.with_
      ~attrs:(strategy_attrs ~tree query strategy)
      ("strategy:" ^ strategy_name strategy)
      (fun () ->
        Obs.Counter.incr (strategy_counter strategy);
        f tree)
  in
  let exec, exec_boolean =
    match (query, strategy) with
    | Cq_query q, Cq_rewrite ->
      let { Cqtree.Rewrite.queries; _ } = Cqtree.Rewrite.rewrite q in
      let sat tree = List.exists (fun q' -> Cqtree.Yannakakis.boolean q' tree) queries in
      let exec tree =
        if Cqtree.Query.is_unary q then begin
          let out = Nodeset.create (Tree.size tree) in
          List.iter
            (fun q' -> Nodeset.union_into out (Cqtree.Yannakakis.unary q' tree))
            queries;
          out
        end
        else begin
          let s = Nodeset.create (Tree.size tree) in
          if Cqtree.Query.is_boolean q then begin
            if sat tree then Nodeset.add s (Tree.root tree)
          end
          else
            List.iter
              (fun q' ->
                List.iter
                  (fun t -> Nodeset.add s t.(0))
                  (Cqtree.Yannakakis.solutions q' tree))
              queries;
          s
        end
      in
      (exec, sat)
    | Cq_query q, _ -> (eval_cq_with strategy q, boolean_cq_with strategy q)
    | Xpath_query p, Cq_yannakakis ->
      (* conjunctive path → acyclic CQ (Prop. 4.2): [strategies] only
         offers this arm when the translation exists *)
      let cq =
        match Xpath.To_cq.to_query p with Some cq -> cq | None -> assert false
      in
      (eval_cq_with Cq_yannakakis cq, boolean_cq_with Cq_yannakakis cq)
    | Xpath_query p, Datalog_hornsat ->
      let exec tree = Xpath.To_datalog.eval_via_datalog tree p in
      (exec, fun tree -> not (Nodeset.is_empty (exec tree)))
    | Xpath_query p, Xpath_fo2 ->
      (* translate once at prepare time (linear, Marx); evaluation is the
         O(n²·|Q|) naive FO² pass *)
      let phi = Folang.Of_xpath.unary p in
      let psi = Folang.Of_xpath.boolean p in
      ( (fun tree -> Folang.Eval.unary tree phi),
        fun tree -> Folang.Eval.holds tree psi )
    | Positive_query u, _ -> (eval_inner query, Cqtree.Positive.boolean u)
    | (Xpath_query _ | Datalog_query _ | Axis_datalog_query _), _ ->
      ( eval_inner query,
        fun tree -> not (Nodeset.is_empty (eval_inner query tree)) )
  in
  {
    source = query;
    strategy;
    canon = canonical query;
    fp = fingerprint query;
    exec = span exec;
    exec_boolean = span exec_boolean;
  }

let prepare query = prepare_with (plan query) query

let with_exec p exec = { p with exec }
