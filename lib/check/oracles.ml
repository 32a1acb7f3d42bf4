module Ns = Treekit.Nodeset
module Tree = Treekit.Tree
module Axis = Treekit.Axis
module Order = Treekit.Order

type verdict = Pass | Skip of string | Fail of string

type t = {
  name : string;
  theorem : string;
  cap_nodes : int;
  gen : Gen.config -> Random.State.t -> Case.query;
  run : Case.t -> verdict;
}

let show_set s =
  let xs = Ns.elements s in
  let shown = List.filteri (fun i _ -> i < 12) xs in
  let body = String.concat "," (List.map string_of_int shown) in
  let ell = if List.length xs > 12 then ",…" else "" in
  Printf.sprintf "{%s%s} (%d)" body ell (Ns.cardinal s)

let sets_equal what a b =
  if Ns.equal a b then Pass
  else Fail (Printf.sprintf "%s: %s vs %s" what (show_set a) (show_set b))

let show_solutions sols =
  let tup a =
    "(" ^ String.concat "," (List.map string_of_int (Array.to_list a)) ^ ")"
  in
  let shown = List.filteri (fun i _ -> i < 8) sols in
  let ell = if List.length sols > 8 then ";…" else "" in
  Printf.sprintf "[%s%s] (%d)"
    (String.concat ";" (List.map tup shown))
    ell (List.length sols)

let solutions_equal what a b =
  if a = b then Pass
  else
    Fail
      (Printf.sprintf "%s: %s vs %s" what (show_solutions a) (show_solutions b))

let wrong_query name c =
  Skip (Printf.sprintf "%s: unexpected query kind %s" name
          (Case.query_to_string c.Case.query))

(* ------------------------------------------------------------------ *)
(* Core XPath engine pairs                                             *)

let xpath_spec =
  {
    name = "xpath-spec";
    theorem = "Section 3 semantics (P1)-(P4), (Q1)-(Q5)";
    cap_nodes = 20;
    gen = (fun cfg rng -> Gen.xpath ~max_depth:2 cfg rng);
    run =
      (fun c ->
        match c.Case.query with
        | Case.Xpath p ->
          sets_equal "Eval vs Semantics"
            (Xpath.Eval.query c.tree p)
            (Xpath.Semantics.query c.tree p)
        | _ -> wrong_query "xpath-spec" c);
  }

let xpath_datalog =
  {
    name = "xpath-datalog";
    theorem = "Theorem 3.2: Core XPath = monadic datalog (via Horn-SAT)";
    cap_nodes = 40;
    gen = Gen.xpath;
    run =
      (fun c ->
        match c.Case.query with
        | Case.Xpath p ->
          let reference = Xpath.Eval.query c.tree p in
          let plain = Xpath.To_datalog.eval_via_datalog ~tmnf:false c.tree p in
          let tmnf = Xpath.To_datalog.eval_via_datalog ~tmnf:true c.tree p in
          (match sets_equal "Eval vs datalog" reference plain with
          | Pass -> sets_equal "Eval vs datalog(TMNF)" reference tmnf
          | v -> v)
        | _ -> wrong_query "xpath-datalog" c);
  }

let xpath_fo2 =
  {
    name = "xpath-fo2";
    theorem = "Section 4 (Marx): Core XPath embeds in FO², time O(n^2 * |Q|)";
    cap_nodes = 16;
    gen = (fun cfg rng -> Gen.xpath ~max_depth:2 cfg rng);
    run =
      (fun c ->
        match c.Case.query with
        | Case.Xpath p ->
          sets_equal "Eval vs FO2"
            (Xpath.Eval.query c.tree p)
            (Folang.Eval.unary c.tree (Folang.Of_xpath.unary p))
        | _ -> wrong_query "xpath-fo2" c);
  }

let xpath_forward =
  {
    name = "xpath-forward";
    theorem = "Section 5 / Theorem 5.1: reverse-axis elimination";
    cap_nodes = 25;
    gen =
      (fun cfg rng ->
        Gen.xpath ~allow_negation:false ~allow_union:false ~max_depth:2 cfg rng);
    run =
      (fun c ->
        match c.Case.query with
        | Case.Xpath p -> (
          match Xpath.Forward.rewrite p with
          | None -> Skip "not conjunctive / not forward-expressible"
          | Some fwd ->
            sets_equal "Eval vs Eval(forward rewrite)"
              (Xpath.Eval.query c.tree p)
              (Xpath.Eval.query c.tree fwd))
        | _ -> wrong_query "xpath-forward" c);
  }

let xpath_stream =
  {
    name = "xpath-stream";
    theorem = "Section 5: streaming twig filter = in-memory Boolean answer";
    cap_nodes = 40;
    gen =
      (fun cfg rng ->
        Gen.xpath
          ~axes:[ Axis.Child; Axis.Descendant; Axis.Descendant_or_self ]
          ~allow_negation:false ~allow_union:false cfg rng);
    run =
      (fun c ->
        match c.Case.query with
        | Case.Xpath p -> (
          let reference = not (Ns.is_empty (Xpath.Eval.query c.tree p)) in
          match Streamq.Xpath_filter.matches c.tree p with
          | None -> Skip "outside the streaming twig fragment"
          | Some b when b <> reference ->
            Fail
              (Printf.sprintf "stream filter %b vs in-memory %b" b reference)
          | Some _ -> (
            match Streamq.Xpath_filter.feed p with
            | None -> Fail "matches is Some but feed is None"
            | Some (push, finish) ->
              Treekit.Event.iter c.tree push;
              let incremental = finish () in
              if incremental = reference then Pass
              else
                Fail
                  (Printf.sprintf "incremental feed %b vs in-memory %b"
                     incremental reference)))
        | _ -> wrong_query "xpath-stream" c);
  }

(* ------------------------------------------------------------------ *)
(* Conjunctive-query engine pairs                                      *)

let cq_yannakakis =
  {
    name = "cq-yannakakis";
    theorem = "Proposition 4.2: acyclic CQs in O(||A|| * |Q|) by semijoins";
    cap_nodes = 16;
    gen = Gen.cq_acyclic;
    run =
      (fun c ->
        match c.Case.query with
        | Case.Cq q -> (
          try
            solutions_equal "Naive vs Yannakakis"
              (Cqtree.Naive.solutions q c.tree)
              (Cqtree.Yannakakis.solutions q c.tree)
          with Cqtree.Yannakakis.Cyclic m -> Skip ("cyclic: " ^ m))
        | _ -> wrong_query "cq-yannakakis" c);
  }

let cq_rewrite =
  {
    name = "cq-rewrite";
    theorem = "Theorem 5.1: CQ = union of acyclic queries";
    cap_nodes = 12;
    gen = Gen.cq_arbitrary;
    run =
      (fun c ->
        match c.Case.query with
        | Case.Cq q ->
          solutions_equal "Naive vs Rewrite"
            (Cqtree.Naive.solutions q c.tree)
            (Cqtree.Rewrite.solutions q c.tree)
        | _ -> wrong_query "cq-rewrite" c);
  }

let cq_actree =
  {
    name = "cq-actree";
    theorem = "Theorem 6.5 / Corollary 6.7: X-property arc consistency";
    cap_nodes = 14;
    gen = Gen.cq_xproperty;
    run =
      (fun c ->
        match c.Case.query with
        | Case.Cq q -> (
          match Actree.Xeval.solutions q c.tree with
          | None -> Skip "signature outside the tractable classes"
          | Some sols ->
            solutions_equal "Naive vs Actree"
              (Cqtree.Naive.solutions q c.tree)
              sols)
        | _ -> wrong_query "cq-actree" c);
  }

(* ------------------------------------------------------------------ *)
(* Streaming and automata                                              *)

let stream_path =
  {
    name = "stream-path";
    theorem = "Section 5: one-pass O(depth * |Q|) path-pattern matching";
    cap_nodes = 40;
    gen = Gen.pattern;
    run =
      (fun c ->
        match c.Case.query with
        | Case.Pattern p -> (
          let selected = Streamq.Path_matcher.select c.tree p in
          let reference =
            Xpath.Eval.query c.tree (Streamq.Path_pattern.to_xpath p)
          in
          match sets_equal "matcher vs Eval(to_xpath)" selected reference with
          | Pass ->
            let push, finish = Streamq.Path_matcher.feed p in
            Treekit.Event.iter c.tree push;
            let stats = finish () in
            if stats.Streamq.Path_matcher.matches = Ns.cardinal selected then
              Pass
            else
              Fail
                (Printf.sprintf "feed counted %d matches, select has %d"
                   stats.Streamq.Path_matcher.matches (Ns.cardinal selected))
          | v -> v)
        | _ -> wrong_query "stream-path" c);
  }

let automata_stream =
  {
    name = "automata-stream";
    theorem = "Sections 4, 7: MSO via tree automata; streaming run O(depth)";
    cap_nodes = 40;
    gen = Gen.auto;
    run =
      (fun c ->
        match c.Case.query with
        | Case.Auto e ->
          let a = Case.automaton e in
          let bottom_up = Automata.Automaton.run a c.tree in
          let streamed =
            Automata.Automaton.run_events a (Treekit.Event.to_seq c.tree)
          in
          let stepper = Automata.Automaton.stepper a in
          Treekit.Event.iter c.tree (Automata.Automaton.step stepper);
          let pushed = Automata.Automaton.accepted stepper in
          let states = Automata.Automaton.state_at a c.tree in
          let at_root = a.Automata.Automaton.accept states.(0) in
          if bottom_up <> streamed then
            Fail
              (Printf.sprintf "bottom-up %b vs streaming %b" bottom_up streamed)
          else if pushed <> Some bottom_up then
            Fail
              (Printf.sprintf "push-stepper %s vs bottom-up %b"
                 (match pushed with
                 | None -> "None"
                 | Some b -> Printf.sprintf "Some %b" b)
                 bottom_up)
          else if bottom_up <> at_root then
            Fail
              (Printf.sprintf "run %b vs accept(state_at root) %b" bottom_up
                 at_root)
          else Pass
        | _ -> wrong_query "automata-stream" c);
  }

(* ------------------------------------------------------------------ *)
(* Metamorphic laws                                                    *)

(* deterministic set family derived from the tree: label sets, their
   complements' building blocks, extremes, and a middle range.  Derived
   (not generated) so the family shrinks with the tree. *)
let set_family t =
  let n = Tree.size t in
  let labels = [ "a"; "b"; "c"; "d" ] in
  let label_sets = List.map (fun l -> Tree.label_set t l) labels in
  let range =
    let s = Ns.create n in
    Ns.add_range s (n / 3) (2 * n / 3);
    s
  in
  Ns.universe n :: Ns.create n :: Ns.of_list n [ 0 ] :: range :: label_sets

let axis_law_run c =
  match c.Case.query with
  | Case.Axis_law a ->
    let t = c.Case.tree in
    let n = Tree.size t in
    let reference s =
      (* {v | exists u in s. a(u,v)} from the O(1) mem characterisation *)
      let out = Ns.create n in
      for v = 0 to n - 1 do
        if Ns.fold (fun u acc -> acc || Axis.mem t a u v) s false then
          Ns.add out v
      done;
      out
    in
    let family = set_family t in
    let check_source s =
      let img = Axis.image t a s in
      match sets_equal "image vs mem-reference" img (reference s) with
      | Pass ->
        List.fold_left
          (fun acc w ->
            match acc with
            | Pass ->
              (* image_within must agree with inter(image, within) and be
                 monotone in the source *)
              let direct = Axis.image_within t a s w in
              let composed = Ns.inter img w in
              (match sets_equal "image_within vs inter(image)" direct composed
               with
              | Pass ->
                let sub = Ns.inter s w in
                if Ns.subset (Axis.image t a sub) img then Pass
                else Fail "image not monotone in the source set"
              | v -> v)
            | v -> v)
          Pass family
      | v -> v
    in
    List.fold_left
      (fun acc s -> match acc with Pass -> check_source s | v -> v)
      Pass family
  | _ -> wrong_query "law-axis" c

let law_axis =
  {
    name = "law-axis";
    theorem = "Section 2: axis algebra (image/mem/image_within agreement)";
    cap_nodes = 30;
    gen = Gen.axis_law;
    run = axis_law_run;
  }

let order_law_run c =
  match c.Case.query with
  | Case.Order_law k ->
    let t = c.Case.tree in
    let n = Tree.size t in
    let fail = ref None in
    let set_fail msg = if !fail = None then fail := Some msg in
    for u = 0 to n - 1 do
      let r = Order.rank t k u in
      if Order.node_of_rank t k r <> u then
        set_fail
          (Printf.sprintf "node_of_rank (rank %d) <> %d in %s" r u
             (Order.kind_name k));
      for v = 0 to n - 1 do
        if Order.lt t k u v <> Order.lt_defined t k u v then
          set_fail
            (Printf.sprintf "lt vs lt_defined disagree on (%d,%d) in %s" u v
               (Order.kind_name k));
        (* the paper's interdefinability: Child+ and Following from the
           orders (Section 2) *)
        let descendant = Order.lt t Order.Pre u v && Order.lt t Order.Post v u in
        if Axis.mem t Axis.Descendant u v <> descendant then
          set_fail
            (Printf.sprintf "Descendant(%d,%d) <> pre/post characterisation" u
               v);
        let following = Order.lt t Order.Pre u v && Order.lt t Order.Post u v in
        if Axis.mem t Axis.Following u v <> following then
          set_fail
            (Printf.sprintf "Following(%d,%d) <> pre/post characterisation" u v)
      done
    done;
    (match !fail with Some m -> Fail m | None -> Pass)
  | _ -> wrong_query "law-order" c

let law_order =
  {
    name = "law-order";
    theorem = "Section 2: <pre/<post/<bflr interdefinability with Child+, Following";
    cap_nodes = 30;
    gen = Gen.order_law;
    run = order_law_run;
  }

let setops_run c =
  match c.Case.query with
  | Case.Setops ops ->
    let t = c.Case.tree in
    let n = Tree.size t in
    let ns = ref (Ns.create n) in
    let model = Array.make n false in
    let apply_label f l =
      let ls = Tree.label_set t l in
      ns := f !ns ls;
      ls
    in
    let step i op =
      (match op with
      | Case.Add x ->
        Ns.add !ns (x mod n);
        model.(x mod n) <- true
      | Case.Remove x ->
        Ns.remove !ns (x mod n);
        model.(x mod n) <- false
      | Case.Add_range (a, b) ->
        let lo = min (a mod n) (b mod n) and hi = max (a mod n) (b mod n) in
        Ns.add_range !ns lo hi;
        for j = lo to hi do
          model.(j) <- true
        done
      | Case.Union_label l ->
        let ls = apply_label Ns.union l in
        for j = 0 to n - 1 do
          model.(j) <- model.(j) || Ns.mem ls j
        done
      | Case.Inter_label l ->
        let ls = apply_label Ns.inter l in
        for j = 0 to n - 1 do
          model.(j) <- model.(j) && Ns.mem ls j
        done
      | Case.Diff_label l ->
        let ls = apply_label Ns.diff l in
        for j = 0 to n - 1 do
          model.(j) <- model.(j) && not (Ns.mem ls j)
        done
      | Case.Complement ->
        ns := Ns.complement !ns;
        for j = 0 to n - 1 do
          model.(j) <- not model.(j)
        done);
      (* after every step the adaptive set must agree with the boolean
         model on membership, cardinality and enumeration order *)
      let card = Array.fold_left (fun a b -> if b then a + 1 else a) 0 model in
      if Ns.cardinal !ns <> card then
        Some
          (Printf.sprintf "after step %d (%s): cardinal %d vs model %d" i
             (Case.setop_to_string op) (Ns.cardinal !ns) card)
      else
        let expected = ref [] in
        for j = n - 1 downto 0 do
          if model.(j) then expected := j :: !expected
        done;
        if Ns.elements !ns <> !expected then
          Some
            (Printf.sprintf "after step %d (%s): elements diverge from model" i
               (Case.setop_to_string op))
        else None
    in
    let rec go i = function
      | [] -> Pass
      | op :: rest -> (
        match step i op with Some m -> Fail m | None -> go (i + 1) rest)
    in
    go 0 ops
  | _ -> wrong_query "law-setops" c

let law_setops =
  {
    name = "law-setops";
    theorem = "Adaptive node-set algebra vs the boolean-array model";
    cap_nodes = 40;
    gen = Gen.setops;
    run = setops_run;
  }

(* ------------------------------------------------------------------ *)
(* Serving layer                                                       *)

(* one cache shared across cases, so later cases genuinely exercise the
   hit path (the per-case second lookup is a guaranteed hit either way) *)
let plan_cache =
  let cache = lazy (Serve.Plan_cache.create ~capacity:64 ()) in
  {
    name = "plan-cache";
    theorem = "serving layer: cached prepared plan = cold evaluation";
    cap_nodes = 16;
    gen =
      (fun cfg rng ->
        if Random.State.bool rng then Gen.xpath cfg rng
        else Gen.cq_arbitrary cfg rng);
    run =
      (fun c ->
        let query =
          match c.Case.query with
          | Case.Xpath p -> Some (Treequery.Engine.Xpath_query p)
          | Case.Cq q -> Some (Treequery.Engine.Cq_query q)
          | _ -> None
        in
        match query with
        | None -> wrong_query "plan-cache" c
        | Some q -> (
          let cache = Lazy.force cache in
          let cold = Treequery.Engine.eval q c.tree in
          let _, p1 = Serve.Plan_cache.find cache q in
          let _, p2 = Serve.Plan_cache.find cache q in
          match
            sets_equal "cold vs first lookup" cold
              (p1.Treequery.Engine.exec c.tree)
          with
          | Pass -> (
            match
              sets_equal "cold vs cached hit" cold
                (p2.Treequery.Engine.exec c.tree)
            with
            | Pass ->
              let b_cold = Treequery.Engine.eval_boolean q c.tree in
              let b_cached = p2.Treequery.Engine.exec_boolean c.tree in
              if b_cold = b_cached then Pass
              else
                Fail
                  (Printf.sprintf "boolean: cold %b vs cached %b" b_cold
                     b_cached)
            | v -> v)
          | v -> v));
  }

(* ------------------------------------------------------------------ *)
(* Adaptive optimizer routing *)

(* Whichever arm the optimizer routes a query to — exploring, or the
   converged argmin — the answers must be indistinguishable from every
   fixed strategy the query admits, node set and boolean alike.  The
   optimizer, its store and the cache are shared across cases, so
   repeated shapes reach converged entries: one sweep exercises both
   states.  Each decision's seeded estimate is recorded in the store as
   its latency and its cost, under a frozen clock, so convergence (and
   hence the routing sequence) is a pure function of the case stream —
   seed-replayable. *)
let optimizer_pick =
  let shared =
    lazy
      (let store = Telemetry.Cost_store.create ~clock:(fun () -> 0.0) () in
       (Serve.Plan_cache.create ~capacity:64 (), store, Optimizer.create ~store ()))
  in
  {
    name = "optimizer-pick";
    theorem = "adaptive optimizer: auto-picked strategy = every fixed strategy";
    cap_nodes = 16;
    gen =
      (fun cfg rng ->
        if Random.State.bool rng then Gen.xpath cfg rng
        else Gen.cq_arbitrary cfg rng);
    run =
      (fun c ->
        let module E = Treequery.Engine in
        let query =
          match c.Case.query with
          | Case.Xpath p -> Some (E.Xpath_query p)
          | Case.Cq q -> Some (E.Cq_query q)
          | _ -> None
        in
        match query with
        | None -> wrong_query "optimizer-pick" c
        | Some q ->
          let cache, store, opt = Lazy.force shared in
          let _, default = Serve.Plan_cache.find cache q in
          let d = Optimizer.decide opt c.tree default in
          let auto = d.Optimizer.d_prepared in
          let auto_set = auto.E.exec c.tree in
          let auto_bool = auto.E.exec_boolean c.tree in
          (* close the loop the way the serving layer does, with the
             estimate standing in for latency and cost *)
          let est = d.Optimizer.d_estimate in
          ignore
            (Telemetry.Cost_store.observe store ~fingerprint:default.E.fp
               ~strategy:(E.strategy_name d.Optimizer.d_strategy)
               ~predicted:0.0 ~observed:est ~latency:est ~counters:[]);
          List.fold_left
            (fun acc s ->
              match acc with
              | Pass -> (
                let p = E.prepare_with s q in
                let what =
                  Printf.sprintf "auto(%s) vs %s"
                    (E.strategy_name d.Optimizer.d_strategy)
                    (E.strategy_name s)
                in
                match sets_equal what auto_set (p.E.exec c.tree) with
                | Pass ->
                  let b = p.E.exec_boolean c.tree in
                  if auto_bool = b then Pass
                  else
                    Fail
                      (Printf.sprintf "%s: boolean %b vs %b" what auto_bool b)
                | v -> v)
              | v -> v)
            Pass (E.strategies q));
  }

(* ------------------------------------------------------------------ *)
(* The price table                                                      *)

(* Every arm of [Engine.strategies] — planner default and alternatives
   alike — runs [exec] and then [exec_boolean], each under one scope;
   the work each counts must not exceed the plan's price on the case's
   tree.  Counting needs observability on, so the runs happen inside a
   private shard that is never merged: the oracle leaves no counters or
   spans behind. *)
let price_covers_work =
  {
    name = "price-covers-work";
    theorem =
      "Fig. 7 map (Thm 3.2, Prop. 4.2, Thm 5.1, Thm 6.5): a plan's price \
       bounds its counted work";
    cap_nodes = 40;
    gen =
      (fun cfg rng ->
        if Random.State.bool rng then Gen.xpath cfg rng
        else Gen.cq_arbitrary cfg rng);
    run =
      (fun c ->
        let module E = Treequery.Engine in
        let query =
          match c.Case.query with
          | Case.Xpath p -> Some (E.Xpath_query p)
          | Case.Cq q -> Some (E.Cq_query q)
          | _ -> None
        in
        match query with
        | None -> wrong_query "price-covers-work" c
        | Some q ->
          let n = Tree.size c.tree in
          let over s run =
            let p = E.prepare_with s q in
            let price = E.price p ~n:(float_of_int n) in
            let work =
              E.work (snd (Obs.Scope.collect "price" (fun () -> run p c.tree)))
            in
            if float_of_int work <= price then None
            else
              Some
                (Printf.sprintf "%s: counted %d > price %.0f (n = %d, size %d)"
                   (E.strategy_name s) work price n p.E.size)
          in
          Obs.with_enabled true @@ fun () ->
          Obs.Shard.run (Obs.Shard.create ()) @@ fun () ->
          let runs =
            [
              (fun (p : E.prepared) t -> ignore (p.E.exec t));
              (fun (p : E.prepared) t -> ignore (p.E.exec_boolean t));
            ]
          in
          match
            List.find_map
              (fun s -> List.find_map (over s) runs)
              (E.strategies q)
          with
          | Some m -> Fail m
          | None -> Pass);
  }

(* ------------------------------------------------------------------ *)
(* Parallel batch execution                                             *)

(* Pool-executed batch answers must be indistinguishable from the
   sequential batch executor and from direct single-engine evaluation,
   for every domain count, with identical seeds.  Pools are shared
   across cases (like the plan cache above) and never shut down — the
   worker domains idle on a condition variable until process exit. *)
let parallel_batch =
  let pools =
    lazy (List.map (fun domains -> (domains, Serve.Pool.create ~domains ())) [ 1; 2; 4 ])
  in
  {
    name = "parallel-batch";
    theorem =
      "serving layer: pool-executed batch = sequential batch = single engine";
    cap_nodes = 16;
    gen =
      (fun cfg rng ->
        if Random.State.bool rng then Gen.xpath cfg rng
        else Gen.cq_arbitrary cfg rng);
    run =
      (fun c ->
        let module E = Treequery.Engine in
        let query =
          match c.Case.query with
          | Case.Xpath p -> Some (E.Xpath_query p)
          | Case.Cq q -> Some (E.Cq_query q)
          | _ -> None
        in
        match query with
        | None -> wrong_query "parallel-batch" c
        | Some q ->
          (* the case query — duplicated, so dedup aliasing is live —
             plus one descendant-label probe per distinct tree label:
             a batch with several independent representatives *)
          let labels =
            let seen = Hashtbl.create 8 in
            let acc = ref [] in
            for i = 0 to Tree.size c.tree - 1 do
              let l = Tree.label c.tree i in
              if not (Hashtbl.mem seen l) && Hashtbl.length seen < 4 then begin
                Hashtbl.add seen l ();
                acc := l :: !acc
              end
            done;
            List.rev !acc
          in
          let probes =
            List.map
              (fun l ->
                E.Xpath_query
                  (Xpath.Ast.step ~quals:[ Xpath.Ast.Lab l ] Axis.Descendant))
              labels
          in
          let queries = Array.of_list ((q :: probes) @ [ q ]) in
          let prepared = Array.map E.prepare queries in
          Tree.seal c.tree;
          let direct = Array.map (fun q -> E.eval q c.tree) queries in
          let seq = Serve.Batch.run_prepared c.tree prepared in
          let compare_answers what (answers : Ns.t array) =
            let verdict = ref Pass in
            Array.iteri
              (fun i a ->
                match !verdict with
                | Pass -> (
                  match
                    sets_equal (Printf.sprintf "%s, query %d" what i) direct.(i) a
                  with
                  | Pass -> ()
                  | v -> verdict := v)
                | _ -> ())
              answers;
            !verdict
          in
          (match compare_answers "sequential batch vs engine" seq.Serve.Batch.answers with
          | Pass ->
            List.fold_left
              (fun verdict (domains, pool) ->
                match verdict with
                | Pass ->
                  let par = Serve.Batch.run_prepared ~pool c.tree prepared in
                  if par.Serve.Batch.distinct <> seq.Serve.Batch.distinct then
                    Fail
                      (Printf.sprintf
                         "%d domains: distinct %d vs sequential %d" domains
                         par.Serve.Batch.distinct seq.Serve.Batch.distinct)
                  else
                    compare_answers
                      (Printf.sprintf "%d-domain batch vs engine" domains)
                      par.Serve.Batch.answers
                | v -> v)
              Pass (Lazy.force pools)
          | v -> v));
  }

(* ------------------------------------------------------------------ *)
(* Standing-query index *)

(* A standing-query script (register / unregister / match) interpreted
   twice: against the shared Subscribe.Index — spines and chain CQs in
   the merged trie, twigs in the twig bank, automata as push
   steppers, the rest as compiled Boolean plans, all fed by ONE SAX pass
   per match — and against the reference, one-at-a-time evaluation of
   every live registration.  Fired ID sets must be identical at every
   match point, including after mid-script churn.  The session is reused
   across match points, so the in-place patching of the trie, the bank
   and the tables (freed states, slot reuse, working-array regrowth) is
   exercised too. *)
let standing_match =
  {
    name = "standing-match";
    theorem =
      "standing-query index: fired subscriptions = one-at-a-time \
       evaluation of every live registration";
    cap_nodes = 25;
    gen = Gen.standing;
    run =
      (fun c ->
        match c.Case.query with
        | Case.Standing ops ->
          let module E = Treequery.Engine in
          let index = Subscribe.Index.create () in
          let session = Subscribe.Index.session index in
          let live = ref [] in
          let show ids = String.concat "," (List.map string_of_int ids) in
          let step (i, verdict) op =
            let verdict =
              match verdict with
              | Pass -> (
                match op with
                | Case.S_register q -> (
                  let payload =
                    match q with
                    | Case.Xpath p -> Some (`Q (E.Xpath_query p))
                    | Case.Cq cq -> Some (`Q (E.Cq_query cq))
                    | Case.Pattern p ->
                      Some (`Q (E.Xpath_query (Streamq.Path_pattern.to_xpath p)))
                    | Case.Auto e -> Some (`A (Case.automaton e))
                    | _ -> None
                  in
                  match payload with
                  | None -> Skip "unsupported registered query kind"
                  | Some (`Q q) ->
                    let (_ : Subscribe.Index.query_class) =
                      Subscribe.Index.register index ~id:i q
                    in
                    live := (i, `Q q) :: !live;
                    Pass
                  | Some (`A a) ->
                    let (_ : Subscribe.Index.query_class) =
                      Subscribe.Index.register_automaton index ~id:i a
                    in
                    live := (i, `A a) :: !live;
                    Pass)
                | Case.S_unregister k ->
                  let (_ : bool) = Subscribe.Index.unregister index ~id:k in
                  live := List.filter (fun (id, _) -> id <> k) !live;
                  Pass
                | Case.S_match ->
                  let fired = Subscribe.Index.match_tree session c.tree in
                  let expected =
                    List.filter_map
                      (fun (id, p) ->
                        let b =
                          match p with
                          | `Q q -> E.eval_boolean q c.tree
                          | `A a -> Automata.Automaton.run a c.tree
                        in
                        if b then Some id else None)
                      !live
                    |> List.sort compare
                  in
                  if fired = expected then Pass
                  else
                    Fail
                      (Printf.sprintf
                         "match at op %d: index fired {%s} vs one-at-a-time \
                          {%s} (%d live)"
                         i (show fired) (show expected) (List.length !live)))
              | v -> v
            in
            (i + 1, verdict)
          in
          snd (List.fold_left step (0, Pass) ops)
        | _ -> wrong_query "standing-match" c);
  }

(* ------------------------------------------------------------------ *)
(* Observability serialisation                                          *)

(* [Report.to_json] output must be a fixpoint of parse-then-reserialise:
   every span (with typed attrs and escape-heavy names), counter,
   histogram summary and scope profile survives bit-for-bit.  This is the
   contract CI relies on when it diffs --stats-json files across runs. *)
let obs_roundtrip =
  {
    name = "obs-roundtrip";
    theorem = "observability: Report.of_json inverts to_json bit-for-bit";
    cap_nodes = 4;
    gen = Gen.obs_report;
    run =
      (fun c ->
        match c.Case.query with
        | Case.Obs_report r -> (
          let s = Obs.Report.to_json r in
          match Obs.Report.of_json s with
          | exception Obs.Report.Malformed m ->
            Fail ("of_json rejected to_json output: " ^ m)
          | exception Obs.Json.Parse_failure { pos; msg } ->
            Fail (Printf.sprintf "Json parse failure at byte %d: %s" pos msg)
          | r' ->
            let s' = Obs.Report.to_json r' in
            if s = s' then
              if Obs.Report.span_count r = Obs.Report.span_count r' then Pass
              else Fail "span_count changed across round-trip"
            else begin
              let n = min (String.length s) (String.length s') in
              let i = ref 0 in
              while !i < n && s.[!i] = s'.[!i] do
                incr i
              done;
              let frag str =
                String.sub str !i (min 32 (String.length str - !i))
              in
              Fail
                (Printf.sprintf "round-trip diverges at byte %d: %S vs %S" !i
                   (frag s) (frag s'))
            end)
        | _ -> wrong_query "obs-roundtrip" c);
  }

(* ------------------------------------------------------------------ *)
(* Telemetry latency summary                                            *)

(* A cost-store cell keeps its latencies in an unregistered
   [Obs.Histogram].  Every quantile must lie within a factor 2^¼ of the
   exact rank-⌈q·n⌉ order statistic (a bucket spans a factor √2 and
   reports its log-midpoint, clamped to the max), or be at most 1 µs
   when that statistic is at most 1 µs (the first bucket holds
   everything below it), and never exceed the exact max; count and max
   are exact; and a 3-way split merged under either association order
   must summarise exactly as the whole sample does.  The quantiles are
   checked at every rank, so equal answers mean equal bucket
   populations. *)
let latency_summary =
  let module H = Obs.Histogram in
  let first_bucket = 1e-6 in
  (* the bucket resolution, with slack for the rounding of [log] at a
     bucket edge *)
  let ratio = (2.0 ** 0.25) *. (1.0 +. 1e-9) in
  let exact sorted q =
    let n = Array.length sorted in
    sorted.(max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) - 1)
  in
  let feed xs =
    let h = H.create () in
    List.iter (H.observe h) xs;
    h
  in
  let merged hs =
    let h = H.create () in
    List.iter (fun src -> H.merge ~into:h src) hs;
    h
  in
  {
    name = "latency-summary";
    theorem =
      "telemetry: cost-store histogram quantiles lie within 2^1/4 of the \
       exact order statistics and never above the max; count and max \
       are exact; 3-way merges equal the whole under both associations";
    cap_nodes = 4;
    gen = Gen.latency_sample;
    run =
      (fun c ->
        match c.Case.query with
        | Case.Latency_sample xs -> (
          let n = List.length xs in
          let sorted = Array.of_list (List.sort compare xs) in
          let max_v = sorted.(n - 1) in
          let qs =
            [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]
            @ List.init n (fun r -> float_of_int (r + 1) /. float_of_int n)
          in
          let whole = feed xs in
          let bounded q =
            let got = H.percentile whole q and want = exact sorted q in
            let within =
              if want <= first_bucket then got <= first_bucket
              else got <= want *. ratio && got >= want /. ratio
            in
            if within && got <= max_v then None
            else Some (Printf.sprintf "q=%g gave %g, exact is %g (max %g)" q got want max_v)
          in
          let digest h = (H.count h, H.max_value h, H.mean h, List.map (H.percentile h) qs) in
          let describe h =
            Printf.sprintf "count %d, max %g, mean %g, quantiles %s" (H.count h)
              (H.max_value h) (H.mean h)
              (String.concat " " (List.map (fun q -> Printf.sprintf "%g" (H.percentile h q)) qs))
          in
          if H.count whole <> n then
            Fail (Printf.sprintf "count %d, expected %d" (H.count whole) n)
          else if H.max_value whole <> max_v then
            Fail (Printf.sprintf "max %g, expected %g" (H.max_value whole) max_v)
          else
            match List.find_map bounded qs with
            | Some m -> Fail m
            | None -> (
              (* 3-way split, merged under both associations *)
              let third = max 1 (n / 3) in
              let part k = List.filteri (fun i _ -> min 2 (i / third) = k) xs in
              let sa = feed (part 0) and sb = feed (part 1) and sd = feed (part 2) in
              match
                List.find_opt
                  (fun (_, h) -> digest h <> digest whole)
                  [
                    ("(a+b)+c", merged [ merged [ sa; sb ]; sd ]);
                    ("a+(b+c)", merged [ sa; merged [ sb; sd ] ]);
                  ]
              with
              | Some (label, h) ->
                Fail (Printf.sprintf "merge %s: %s; whole: %s" label (describe h) (describe whole))
              | None -> Pass))
        | _ -> wrong_query "latency-summary" c);
  }

(* ------------------------------------------------------------------ *)
(* Ops-plane scrape fidelity                                            *)

(* The /metrics exposition must be a faithful, parseable projection of
   the report it snapshots: every counter appears as an exact _total
   sample, every histogram's _count matches, labelled telemetry-style
   summaries survive with their (escape-heavy) label values intact, and
   the whole body is line-parseable ending in # EOF.  This is the law
   that makes a live scrape ≡ the run's final --stats-json accounting. *)
let ops_scrape =
  let unescape v =
    let buf = Buffer.create (String.length v) in
    let n = String.length v in
    let rec go i =
      if i < n then
        if v.[i] = '\\' && i + 1 < n then begin
          (match v.[i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | '\\' -> Buffer.add_char buf '\\'
          | '"' -> Buffer.add_char buf '"'
          | c ->
            Buffer.add_char buf '\\';
            Buffer.add_char buf c);
          go (i + 2)
        end
        else begin
          Buffer.add_char buf v.[i];
          go (i + 1)
        end
    in
    go 0;
    Buffer.contents buf
  in
  (* one exposition sample: name, labels (unescaped), value text *)
  let parse_sample line =
    match String.index_opt line ' ' with
    | None -> Error "sample without value"
    | Some _ -> (
      let name_end =
        match String.index_opt line '{' with
        | Some i -> i
        | None -> String.index line ' '
      in
      let name = String.sub line 0 name_end in
      let rest = String.sub line name_end (String.length line - name_end) in
      if rest = "" || rest.[0] <> '{' then
        match String.split_on_char ' ' (String.trim rest) with
        | [ v ] -> Ok (name, [], v)
        | _ -> Error ("malformed unlabelled sample: " ^ line)
      else begin
        (* scan k="v" pairs with escape awareness *)
        let n = String.length rest in
        let labels = ref [] in
        let i = ref 1 in
        let ok = ref true in
        let err = ref "" in
        let fail m =
          ok := false;
          err := m;
          i := n
        in
        while !ok && !i < n && rest.[!i] <> '}' do
          match String.index_from_opt rest !i '=' with
          | None -> fail "label without ="
          | Some eq ->
            if eq + 1 >= n || rest.[eq + 1] <> '"' then fail "unquoted label"
            else begin
              let k = String.sub rest !i (eq - !i) in
              let buf = Buffer.create 16 in
              let j = ref (eq + 2) in
              let closed = ref false in
              while (not !closed) && !j < n do
                if rest.[!j] = '\\' && !j + 1 < n then begin
                  Buffer.add_char buf rest.[!j];
                  Buffer.add_char buf rest.[!j + 1];
                  j := !j + 2
                end
                else if rest.[!j] = '"' then closed := true
                else begin
                  Buffer.add_char buf rest.[!j];
                  incr j
                end
              done;
              if not !closed then fail "unterminated label value"
              else begin
                labels := (k, unescape (Buffer.contents buf)) :: !labels;
                i := !j + 1;
                if !i < n && rest.[!i] = ',' then incr i
              end
            end
        done;
        if not !ok then Error (!err ^ ": " ^ line)
        else if !i >= n || rest.[!i] <> '}' then
          Error ("unterminated label set: " ^ line)
        else
          match String.split_on_char ' ' (String.trim (String.sub rest (!i + 1) (n - !i - 1))) with
          | [ v ] -> Ok (name, List.rev !labels, v)
          | _ -> Error ("malformed labelled sample: " ^ line)
      end)
  in
  {
    name = "ops-scrape";
    theorem =
      "ops plane: the OpenMetrics exposition is a faithful, parseable \
       projection of the snapshot report (scraped counters = stats-json \
       counters, labelled summaries survive escaping)";
    cap_nodes = 4;
    gen = Gen.obs_report;
    run =
      (fun c ->
        match c.Case.query with
        | Case.Obs_report r ->
          (* adversarial labelled summaries derived deterministically
             from the report: span names carry every escape class *)
          let span_name i =
            match List.nth_opt r.Obs.Report.spans i with
            | Some s -> s.Obs.Report.name
            | None -> Printf.sprintf "fp\"\\\n%d" i
          in
          let summaries =
            List.mapi
              (fun i (_, (h : Obs.histogram_summary)) ->
                {
                  Obs.Openmetrics.metric = "fp_latency";
                  (* distinct report spans can share a name; suffix the
                     index so each derived series stays unique *)
                  labels =
                    [ ("fingerprint", Printf.sprintf "%s#%d" (span_name i) i) ];
                  quantiles = [ ("0.5", h.Obs.p50); ("0.99", h.Obs.p99) ];
                  sum = h.Obs.mean *. float_of_int h.Obs.count;
                  count = h.Obs.count;
                })
              r.Obs.Report.histograms
          in
          let publisher =
            Opsplane.Snapshot.create ~version:"check" ~strategies:"s\"1,s\\2"
              ~start_time:12345.0 ()
          in
          let snap =
            Opsplane.Snapshot.publish ~report:r ~summaries
              ~gauges:
                [
                  Obs.Openmetrics.gauge
                    ~labels:[ ("mode", span_name 0) ]
                    "ops_scrape_case" 1.0;
                ]
              ~at:12346.0 publisher
          in
          let body = Opsplane.Snapshot.to_openmetrics publisher snap in
          let lines = String.split_on_char '\n' body in
          (* structure: parseable lines, # EOF terminal *)
          let rec structure acc = function
            | [] | [ "" ] -> (
              match acc with
              | "# EOF" :: _ -> Ok ()
              | l :: _ -> Error ("last line is not # EOF: " ^ l)
              | [] -> Error "empty exposition")
            | l :: rest -> structure (l :: acc) rest
          in
          let samples = ref [] in
          let parse_all () =
            List.fold_left
              (fun acc l ->
                match acc with
                | Error _ -> acc
                | Ok () ->
                  if l = "" || (String.length l >= 1 && l.[0] = '#') then Ok ()
                  else (
                    match parse_sample l with
                    | Ok s ->
                      samples := s :: !samples;
                      Ok ()
                    | Error m -> Error m))
              (Ok ()) lines
          in
          let find_sample name labels =
            List.find_opt
              (fun (n, ls, _) -> n = name && ls = labels)
              !samples
          in
          let sanitize = Obs.Openmetrics.sanitize in
          let check_counters () =
            List.find_map
              (fun (name, v) ->
                let m = "treequery_" ^ sanitize name ^ "_total" in
                match find_sample m [] with
                | Some (_, _, txt) when txt = string_of_int v -> None
                | Some (_, _, txt) ->
                  Some
                    (Printf.sprintf "counter %s scraped %s, report says %d" m
                       txt v)
                | None -> Some (Printf.sprintf "counter %s missing" m))
              r.Obs.Report.counters
          in
          let check_histograms () =
            List.find_map
              (fun (name, (h : Obs.histogram_summary)) ->
                let m = "treequery_" ^ sanitize name ^ "_seconds_count" in
                match find_sample m [] with
                | Some (_, _, txt) when txt = string_of_int h.Obs.count -> None
                | Some (_, _, txt) ->
                  Some
                    (Printf.sprintf "histogram %s scraped %s, report says %d"
                       m txt h.Obs.count)
                | None -> Some (Printf.sprintf "histogram %s missing" m))
              r.Obs.Report.histograms
          in
          let check_summaries () =
            List.find_map
              (fun (s : Obs.Openmetrics.summary) ->
                let m = "treequery_fp_latency_seconds_count" in
                match find_sample m s.Obs.Openmetrics.labels with
                | Some (_, _, txt)
                  when txt = string_of_int s.Obs.Openmetrics.count ->
                  None
                | Some (_, _, txt) ->
                  Some
                    (Printf.sprintf
                       "summary %s{%s} scraped %s, expected %d" m
                       (String.concat ","
                          (List.map fst s.Obs.Openmetrics.labels))
                       txt s.Obs.Openmetrics.count)
                | None ->
                  Some
                    (Printf.sprintf
                       "summary series lost its label value %S (parsed: %s)"
                       (String.concat ","
                          (List.map snd s.Obs.Openmetrics.labels))
                       (String.concat "; "
                          (List.filter_map
                             (fun (n, ls, _) ->
                               if n = m then
                                 Some
                                   (String.concat ","
                                      (List.map
                                         (fun (k, v) ->
                                           Printf.sprintf "%s=%S" k v)
                                         ls))
                               else None)
                             !samples))))
              summaries
          in
          let check_build () =
            match
              ( find_sample "treequery_build_info"
                  [ ("version", "check"); ("strategies", "s\"1,s\\2") ],
                find_sample "treequery_process_start_time_seconds" [] )
            with
            | Some (_, _, "1"), Some (_, _, "12345") -> None
            | Some (_, _, "1"), Some (_, _, t) ->
              Some ("process_start_time_seconds scraped " ^ t)
            | Some (_, _, v), _ -> Some ("build_info scraped value " ^ v)
            | None, _ -> Some "build_info missing or labels mangled"
          in
          (match structure [] lines with
          | Error m -> Fail m
          | Ok () -> (
            match parse_all () with
            | Error m -> Fail ("unparseable exposition: " ^ m)
            | Ok () -> (
              match
                List.find_map
                  (fun f -> f ())
                  [
                    check_counters; check_histograms; check_summaries;
                    check_build;
                  ]
              with
              | Some m -> Fail m
              | None -> Pass)))
        | _ -> wrong_query "ops-scrape" c);
  }

let all =
  [
    xpath_spec;
    xpath_datalog;
    xpath_fo2;
    xpath_forward;
    xpath_stream;
    cq_yannakakis;
    cq_rewrite;
    cq_actree;
    stream_path;
    automata_stream;
    law_axis;
    law_order;
    law_setops;
    plan_cache;
    optimizer_pick;
    parallel_batch;
    standing_match;
    obs_roundtrip;
    latency_summary;
    ops_scrape;
    price_covers_work;
  ]

let find name = List.find_opt (fun o -> o.name = name) all

let names () = List.map (fun o -> o.name) all
