(* The standing-query index: the merged spine trie against individual
   Path_matchers, registry dedup/churn semantics, session refresh, and
   the standing-match differential oracle at the 1000-case acceptance
   bar. *)
open Treekit
open Helpers
module PP = Streamq.Path_pattern
module PM = Streamq.Path_matcher
module Trie = Subscribe.Trie
module Index = Subscribe.Index
module E = Treequery.Engine

(* ------------------------------------------------------------------ *)
(* trie vs individual matchers *)

let fired p =
  let acc = ref [] in
  Trie.iter_fired p (fun h -> acc := h :: !acc);
  List.sort compare !acc

let trie_match trie t =
  let p = Trie.pass trie in
  Event.iter t (Trie.push p);
  fired p

(* random patterns over all three edges; [PP.random] draws only / and
   //, so the following edges come from here *)
let pattern_gen =
  QCheck2.Gen.(
    let* length = int_range 1 4 in
    list_repeat length
      (let* edge = oneofl [ PP.Child; PP.Descendant; PP.Following ] in
       let* label = oneofl [ None; Some "a"; Some "b"; Some "c" ] in
       return { PP.edge; label }))

(* the patterns after the first [dropped] have been added and detached
   again, so the trie must have freed what only they used *)
let prop_trie_equals_matchers =
  qtest ~count:300 "merged trie = one Path_matcher per pattern"
    QCheck2.Gen.(
      let* pats = list_size (int_range 1 10) pattern_gen in
      let* dropped = int_range 0 3 in
      let* tseed = int_range 0 50_000 in
      let* n = int_range 1 50 in
      return (pats, dropped, random_tree ~seed:tseed ~n ()))
    (fun (pats, dropped, t) ->
      let trie = Trie.create () in
      let states = List.mapi (fun i p -> Trie.add trie Trie.Root p ~handle:i) pats in
      List.iteri (fun i state -> if i < dropped then Trie.detach trie ~state ~handle:i) states;
      let fresh = Trie.create () in
      List.iteri (fun i p -> if i >= dropped then ignore (Trie.add fresh Trie.Root p ~handle:i)) pats;
      let want =
        List.concat (List.mapi (fun i p -> if i >= dropped && PM.matches t p then [ i ] else []) pats)
      in
      trie_match trie t = want && Trie.states trie = Trie.states fresh)

let test_trie_prefix_sharing () =
  let trie = Trie.create () in
  let add h s = Trie.add trie Trie.Root (PP.of_string s) ~handle:h in
  let s1 = add 1 "//a/b/c" in
  let s2 = add 2 "//a/b/d" in
  let s3 = add 3 "//a/b/c" in
  Alcotest.(check int) "identical spines share a terminal" s1 s3;
  Alcotest.(check bool) "distinct suffixes diverge" true (s1 <> s2);
  (* root + a + b + c + d: prefixes //a/b shared *)
  Alcotest.(check int) "states bounded by distinct prefixes" 5 (Trie.states trie);
  Trie.detach trie ~state:s2 ~handle:2;
  Alcotest.(check int) "an unshared suffix is freed" 4 (Trie.states trie);
  Trie.detach trie ~state:s1 ~handle:1;
  Alcotest.(check int) "a terminal another spine holds stays" 4 (Trie.states trie);
  Alcotest.(check int) "a freed id is reused" s2 (add 4 "//e");
  Trie.detach trie ~state:s3 ~handle:3;
  Alcotest.(check int) "what only the last spine held is freed" 2 (Trie.states trie);
  let c = Trie.add trie Trie.Document (PP.of_string "//e") ~handle:5 in
  Alcotest.(check int) "a spine from the document node shares nothing with one from the root" 4
    (Trie.states trie);
  Trie.detach trie ~state:c ~handle:5;
  Alcotest.(check int) "the document start goes with its last spine" 2 (Trie.states trie);
  Alcotest.check_raises "a detached handle"
    (Invalid_argument "Subscribe.Trie.detach: handle not attached") (fun () ->
      Trie.detach trie ~state:s3 ~handle:3)

let test_trie_pass_reuse_across_growth () =
  (* a pooled pass must survive trie growth between documents *)
  let trie = Trie.create () in
  ignore (Trie.add trie Trie.Root (PP.of_string "//a") ~handle:0);
  let p = Trie.pass trie in
  let t = Xml.parse "<r><a><b/></a></r>" in
  Trie.begin_doc p;
  Event.iter t (Trie.push p);
  Alcotest.(check (list int)) "first doc" [ 0 ] (fired p);
  ignore (Trie.add trie Trie.Root (PP.of_string "//a/b") ~handle:1);
  Trie.begin_doc p;
  Event.iter t (Trie.push p);
  Alcotest.(check (list int)) "after growth" [ 0; 1 ] (fired p)

(* ------------------------------------------------------------------ *)
(* registry semantics *)

let xq s = E.parse_xpath s

let pattern_query p = E.Xpath_query (PP.to_xpath p)

(* selective dissemination through the index: one registration per
   pattern, repeats included, fires exactly the patterns a dedicated
   Path_matcher matches *)
let prop_index_equals_matchers =
  qtest ~count:100 "index = per-pattern matchers"
    QCheck2.Gen.(
      let* tseed = int_range 0 50_000 in
      let* n = int_range 1 40 in
      let* k = int_range 1 8 in
      return (random_tree ~seed:tseed ~n (), k, tseed))
    (fun (t, k, seed) ->
      let pats =
        List.init k (fun i ->
            PP.random ~seed:(seed + i) ~length:(1 + (i mod 3))
              ~labels:Generator.labels_abc ())
      in
      let idx = Index.create () in
      List.iteri (fun id p -> ignore (Index.register idx ~id (pattern_query p))) pats;
      let want =
        List.concat (List.mapi (fun i p -> if PM.matches t p then [ i ] else []) pats)
      in
      Index.match_tree (Index.session idx) t = want)

let test_index_dedup_fanout () =
  let idx = Index.create () in
  let c1 = Index.register idx ~id:1 (xq "//a/b") in
  let c2 = Index.register idx ~id:2 (xq "//a/b") in
  Alcotest.(check bool) "both spine" true (c1 = Index.Spine && c2 = Index.Spine);
  Alcotest.(check int) "one entry" 1 (Index.entries idx);
  Alcotest.(check int) "two live ids" 2 (Index.live idx);
  let s = Index.session idx in
  let t = Xml.parse "<r><a><b/></a></r>" in
  Tree.seal t;
  Alcotest.(check (list int)) "fan-out fires both ids" [ 1; 2 ]
    (Index.match_tree s t);
  Alcotest.(check bool) "unregister live id" true (Index.unregister idx ~id:1);
  Alcotest.(check bool) "unregister dead id is idempotent" false
    (Index.unregister idx ~id:1);
  Alcotest.(check int) "entry survives while an id remains" 1 (Index.entries idx);
  Alcotest.(check (list int)) "remaining id still fires" [ 2 ]
    (Index.match_tree s t);
  Alcotest.(check bool) "last id out" true (Index.unregister idx ~id:2);
  Alcotest.(check int) "entry dropped" 0 (Index.entries idx);
  Alcotest.(check (list int)) "nothing fires" [] (Index.match_tree s t);
  Alcotest.check_raises "duplicate live id rejected"
    (Invalid_argument "Subscribe.Index.register: duplicate id 5")
    (fun () ->
      ignore (Index.register idx ~id:5 (xq "//a"));
      ignore (Index.register idx ~id:5 (xq "//b")))

let test_index_classes () =
  let idx = Index.create () in
  Alcotest.(check bool) "spine" true
    (Index.register idx ~id:0 (xq "//a/b") = Index.Spine);
  Alcotest.(check bool) "twig" true
    (Index.register idx ~id:1 (xq "//a[child::b]") = Index.Twig);
  Alcotest.(check bool) "general (reverse axis)" true
    (Index.register idx ~id:2 (xq "//a/parent::b") = Index.General);
  Alcotest.(check bool) "auto" true
    (Index.register_automaton idx ~id:3
       (Automata.Automaton.exists_label "c")
     = Index.Auto);
  let counts = Index.class_counts idx in
  List.iter
    (fun cls -> Alcotest.(check int) cls 1 (List.assoc cls counts))
    [ "spine"; "twig"; "general"; "auto" ];
  let s = Index.session idx in
  let t = Xml.parse "<r><a><b/><c/></a></r>" in
  Tree.seal t;
  (* //a/b matches, //a[child::b] anchored at root matches, parent
     query empty, automaton sees the c leaf *)
  Alcotest.(check (list int)) "all classes fire in one pass" [ 0; 1; 3 ]
    (Index.match_tree s t)

let test_session_refresh_on_churn () =
  let idx = Index.create () in
  let s = Index.session idx in
  let t = Xml.parse "<r><a><b/></a></r>" in
  Tree.seal t;
  Alcotest.(check (list int)) "empty index" [] (Index.match_tree s t);
  ignore (Index.register idx ~id:7 (xq "//b"));
  Alcotest.(check (list int)) "sees registration" [ 7 ] (Index.match_tree s t);
  ignore (Index.register idx ~id:8 (xq "//a[child::b]"));
  ignore (Index.unregister idx ~id:7);
  Alcotest.(check (list int)) "sees churn" [ 8 ] (Index.match_tree s t)

(* fired sets must agree with one-at-a-time evaluation on generated
   documents as the population churns — the oracle in miniature, but
   through Workload-shaped queries and a reused session *)
let prop_index_equals_one_at_a_time =
  qtest ~count:60 "index = one-at-a-time over churning workload shapes"
    QCheck2.Gen.(
      let* seed = int_range 0 20_000 in
      let* nshapes = int_range 1 12 in
      let* tseed = int_range 0 20_000 in
      return (seed, nshapes, tseed))
    (fun (seed, nshapes, tseed) ->
      let shapes =
        Serve.Workload.shapes ~rng:(Random.State.make [| seed |]) ~count:nshapes
      in
      let idx = Index.create () in
      Array.iteri
        (fun i (sh : Serve.Workload.shape) ->
          ignore (Index.register idx ~id:i sh.query))
        shapes;
      let s = Index.session idx in
      let check_tree t =
        Tree.seal t;
        let fired = Index.match_tree s t in
        let want =
          Array.to_list shapes
          |> List.mapi (fun i (sh : Serve.Workload.shape) ->
                 if E.eval_boolean sh.query t then [ i ] else [])
          |> List.concat
        in
        fired = want
      in
      let t1 = random_tree ~seed:tseed ~n:30 () in
      let t2 = Generator.xmark ~seed:tseed ~scale:1 () in
      check_tree t1 && check_tree t2)

(* ------------------------------------------------------------------ *)
(* the acceptance bar: standing-match oracle over 1k cases *)

let test_oracle_1k () =
  let oracle =
    List.find
      (fun (o : Check.Oracles.t) -> o.name = "standing-match")
      Check.Oracles.all
  in
  let stats =
    Check.Runner.run
      { Check.Runner.default with cases = 1_000; oracles = [ oracle ] }
  in
  Alcotest.(check int) "no discrepancies" 0
    (Check.Runner.discrepancy_count stats);
  List.iter
    (fun (_, passes, _, fails) ->
      Alcotest.(check int) "no fails" 0 fails;
      Alcotest.(check bool) "mostly applicable" true (passes >= 900))
    stats.Check.Runner.per_oracle

(* a rejected duplicate id must leave no orphan entry behind: the twig
   bank would otherwise match the orphan on every document *)
let test_rejected_duplicate_leaves_no_orphan () =
  let idx = Index.create () in
  let s = Index.session idx in
  let t = Xml.parse "<r><a><b/></a><c><d/></c></r>" in
  Tree.seal t;
  ignore (Index.register idx ~id:1 (xq "//a[b]"));
  let entries = Index.entries idx and counts = Index.class_counts idx in
  let fired = Index.match_tree s t in
  let rejected f =
    match f () with
    | _ -> Alcotest.fail "duplicate id accepted"
    | exception Invalid_argument _ ->
      Alcotest.(check int) "entries unchanged" entries (Index.entries idx);
      Alcotest.(check (list (pair string int)))
        "class counts unchanged" counts (Index.class_counts idx);
      Alcotest.(check (list int)) "fired set unchanged" fired (Index.match_tree s t)
  in
  rejected (fun () -> Index.register idx ~id:1 (xq "//c[d]"));
  rejected (fun () -> Index.register idx ~id:1 (xq "//c/d"));
  rejected (fun () ->
      Index.register_automaton idx ~id:1 (Automata.Automaton.exists_label "d"));
  Alcotest.(check bool) "unregister" true (Index.unregister idx ~id:1);
  Alcotest.(check int) "no entry left" 0 (Index.entries idx);
  Alcotest.(check int) "no live id left" 0 (Index.live idx)

(* the twig bank packs a pattern's nodes into one int: a larger twig is
   routed to its compiled plan instead, and still fires correctly *)
let test_oversized_twig_is_general () =
  let quals k = String.concat "" (List.init k (fun i -> Printf.sprintf "[x%d]" i)) in
  (* the twig of //a[x0]…[x(k-1)] has a document-root node, a and k leaves *)
  let fits = Streamq.Twig_matcher.max_nodes - 2 in
  let idx = Index.create () in
  Alcotest.(check bool) "largest twig" true
    (Index.register idx ~id:0 (xq ("//a" ^ quals fits)) = Index.Twig);
  Alcotest.(check bool) "one node more" true
    (Index.register idx ~id:1 (xq ("//a" ^ quals (fits + 1))) = Index.General);
  let doc k =
    let t =
      Xml.parse
        ("<r><a>" ^ String.concat "" (List.init k (Printf.sprintf "<x%d/>")) ^ "</a></r>")
    in
    Tree.seal t;
    t
  in
  let s = Index.session idx in
  Alcotest.(check (list int)) "both fire" [ 0; 1 ] (Index.match_tree s (doc (fits + 1)));
  Alcotest.(check (list int)) "only the smaller fires" [ 0 ] (Index.match_tree s (doc fits))

let suite =
  [
    prop_trie_equals_matchers;
    Alcotest.test_case "trie prefix sharing" `Quick test_trie_prefix_sharing;
    Alcotest.test_case "pooled pass survives trie growth" `Quick
      test_trie_pass_reuse_across_growth;
    prop_index_equals_matchers;
    Alcotest.test_case "dedup fan-out and unregister" `Quick
      test_index_dedup_fanout;
    Alcotest.test_case "class routing, one pass fires all" `Quick
      test_index_classes;
    Alcotest.test_case "session refresh on churn" `Quick
      test_session_refresh_on_churn;
    prop_index_equals_one_at_a_time;
    Alcotest.test_case "standing-match oracle x1000" `Slow test_oracle_1k;
    Alcotest.test_case "rejected duplicate id leaves no orphan" `Quick
      test_rejected_duplicate_leaves_no_orphan;
    Alcotest.test_case "oversized twig routes to a general plan" `Quick
      test_oversized_twig_is_general;
  ]

(* ------------------------------------------------------------------ *)
(* chain CQs, which register as spines leaving the document node *)

module Q = Cqtree.Query

(* a chain CQ of 1–4 atoms over child, descendant and following, each
   variable tested for a, b or c, or not at all, with the spine it
   stands for *)
let chain_cq_gen =
  QCheck2.Gen.(
    let* k = int_range 1 4 in
    let* tests = list_repeat (k + 1) (oneofl [ None; Some "a"; Some "b"; Some "c" ]) in
    let* axes = list_repeat k (oneofl [ Axis.Child; Axis.Descendant; Axis.Following ]) in
    let var i = Printf.sprintf "X%d" i in
    let labels =
      List.concat (List.mapi (fun i -> function Some l -> [ Q.U (Q.Lab l, var i) ] | None -> []) tests)
    in
    let edges = List.mapi (fun i a -> Q.A (a, var i, var (i + 1))) axes in
    let edge = function Axis.Child -> PP.Child | Axis.Descendant -> PP.Descendant | _ -> PP.Following in
    let spine =
      List.map2 (fun e label -> { PP.edge = e; label }) (PP.Descendant :: List.map edge axes) tests
    in
    return ({ Q.head = []; atoms = labels @ edges }, spine))

(* random chains against one-at-a-time evaluation, through the index
   (which must recognise each as a chain) and through a trie pass that
   first sees a stream cut after [cut] events, so its reset must equal
   a fresh pass *)
let prop_chains_in_index =
  qtest ~count:300 "chain CQs in the index = Engine.eval_boolean; reset = fresh pass"
    QCheck2.Gen.(
      let* k = int_range 1 6 in
      let* chains = list_repeat k chain_cq_gen in
      let* s1 = int_range 0 50_000 in
      let* s2 = int_range 0 50_000 in
      let* n1 = int_range 1 60 in
      let* n2 = int_range 1 60 in
      let* cut = int_range 0 (2 * n1) in
      return (chains, random_tree ~seed:s1 ~n:n1 (), cut, random_tree ~seed:s2 ~n:n2 ()))
    (fun (chains, t1, cut, t2) ->
      let want =
        List.concat (List.mapi (fun i (q, _) -> if E.eval_boolean (E.Cq_query q) t2 then [ i ] else []) chains)
      in
      let idx = Index.create () in
      let classes = List.mapi (fun id (q, _) -> Index.register idx ~id (E.Cq_query q)) chains in
      let trie = Trie.create () in
      List.iteri (fun i (_, spine) -> ignore (Trie.add trie Trie.Document spine ~handle:i)) chains;
      let p = Trie.pass trie in
      List.iteri (fun i ev -> if i < cut then Trie.push p ev) (Event.to_list t1);
      Trie.begin_doc p;
      Event.iter t2 (Trie.push p);
      List.for_all (fun c -> c = Index.Spine) classes
      && Index.match_tree (Index.session idx) t2 = want
      && fired p = want
      && trie_match trie t2 = want)

(* every CQ of the serving workload is a chain, so it streams *)
let test_workload_cqs_are_chains () =
  let rng = Random.State.make [| 22 |] in
  let idx = Index.create () in
  for id = 0 to 499 do
    let text = Serve.Workload.gen_cq rng in
    if Index.register idx ~id (E.parse_cq text) <> Index.Spine then
      Alcotest.failf "%s does not register as a spine" text
  done;
  Alcotest.(check int) "no general entry" 0 (List.assoc "general" (Index.class_counts idx));
  Alcotest.(check bool) "spine entries" true (List.assoc "spine" (Index.class_counts idx) > 0)

(* distinct chains for i < 9000: i's mixed-radix digits pick the axes
   and labels *)
let chain_vocab =
  [| "site"; "regions"; "item"; "name"; "description"; "people"; "person"; "open_auction";
     "bidder"; "increase" |]

let chain_digits i = ([| i / 900 mod 10; i / 3 mod 10; i / 90 mod 10 |], [| i mod 3; i / 30 mod 3 |])

let chain_text i =
  let l, a = chain_digits i in
  let axes = [| "child"; "descendant"; "following" |] in
  Printf.sprintf
    "q(X0) :- lab(X0, \"%s\"), %s(X0, X1), lab(X1, \"%s\"), %s(X1, X2), lab(X2, \"%s\")"
    chain_vocab.(l.(0)) axes.(a.(0)) chain_vocab.(l.(1)) axes.(a.(1)) chain_vocab.(l.(2))

let chain_query i = E.parse_cq (chain_text i)

(* the spine chain [i] registers as *)
let chain_spine i =
  let l, a = chain_digits i in
  let edges = [| PP.Child; PP.Descendant; PP.Following |] in
  let step edge k = { PP.edge; label = Some chain_vocab.(l.(k)) } in
  [ step PP.Descendant 0; step edges.(a.(0)) 1; step edges.(a.(1)) 2 ]

(* churn cost: a host-independent allocation gate.  Minor words of one
   register + unregister + match_tree on a fixed document, less those of
   match_tree alone, with [live] chains registered: patching the index
   costs the entry, not the population.  The least of three rounds, so
   a hash-table or array resize in the first does not count. *)
let churn_words ~live =
  let idx = Index.create () in
  for id = 0 to live - 1 do
    ignore (Index.register idx ~id (chain_query id))
  done;
  let s = Index.session idx in
  let doc = Generator.xmark ~seed:3 ~scale:2 () in
  ignore (Index.match_tree s doc);
  (* the same query at every [live], so its text costs the same *)
  let extra = chain_query 8_999 in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let best = ref infinity in
  for _ = 1 to 3 do
    let alone = words (fun () -> ignore (Index.match_tree s doc)) in
    let churned =
      words (fun () ->
          ignore (Index.register idx ~id:live extra);
          ignore (Index.unregister idx ~id:live);
          ignore (Index.match_tree s doc))
    in
    best := Float.min !best (churned -. alone)
  done;
  !best

let test_churn_allocation_gate () =
  let w1 = churn_words ~live:1_000 and w4 = churn_words ~live:4_000 in
  if w4 > w1 then
    Alcotest.failf "register + unregister allocate %.0f words at 4000 live chains, %.0f at 1000" w4 w1

(* the audit of per-registration state: after many distinct
   register/unregister pairs over every class, each class's compiled
   slots equal its live entries, and the trie holds the states and does
   the work of a fresh index's *)
let test_slots_follow_live_entries () =
  let idx = Index.create () in
  let s = Index.session idx in
  let doc = Generator.xmark ~seed:5 ~scale:1 () in
  let query i =
    match i mod 4 with
    | 0 | 1 -> chain_query i
    | 2 -> xq (Printf.sprintf "//item[name]/description[text%d]" i)
    | _ ->
      E.parse_cq
        (Printf.sprintf "q(X) :- lab(X, \"item\"), child(X, Y), lab(Y, \"n%d\"), root(X)" i)
  in
  (* a standing population, then pairs whose lifetimes overlap *)
  for id = 0 to 39 do
    ignore (Index.register idx ~id (query id))
  done;
  ignore (Index.register_automaton idx ~id:40 (Automata.Automaton.exists_label "item"));
  for i = 0 to 599 do
    ignore (Index.register idx ~id:(1000 + i) (query (100 + i)));
    if i >= 8 then ignore (Index.unregister idx ~id:(1000 + i - 8));
    if i mod 50 = 0 then ignore (Index.match_tree s doc);
    if i = 300 then ignore (Index.unregister idx ~id:40)
  done;
  let counts = Index.class_counts idx in
  Alcotest.(check (list (pair string int)))
    "slots = live entries"
    (List.filter (fun (c, _) -> c <> "spine") counts)
    (Index.slots idx);
  Alcotest.(check int) "chain spines" (20 + 4) (List.assoc "spine" counts);
  let live = List.init 40 (fun id -> (id, query id)) @ List.init 8 (fun k -> (1592 + k, query (692 + k))) in
  let want = List.filter_map (fun (id, q) -> if E.eval_boolean q doc then Some id else None) live in
  Alcotest.(check (list int)) "fired = one-at-a-time" want (Index.match_tree s doc);
  let fresh = Index.create () in
  List.iter (fun (id, q) -> ignore (Index.register fresh ~id q)) live;
  let fs = Index.session fresh in
  Alcotest.(check (list int)) "fired = a fresh index's" want (Index.match_tree fs doc);
  Alcotest.(check int) "trie states = a fresh index's" (Index.trie_states fresh) (Index.trie_states idx);
  Alcotest.(check int) "trie work = a fresh index's" (Index.doc_active_work fs) (Index.doc_active_work s)

(* the trie pass and the twig bank allocate nothing per event: after a
   warm-up document has grown the frames, pushing 10 more documents'
   events allocates no more than reading the clock of minor words does *)
let test_passes_allocate_nothing_per_event () =
  let doc = Generator.xmark ~seed:9 ~scale:8 () in
  let events = Array.of_list (Event.to_list doc) in
  let trie = Trie.create () in
  for i = 0 to 199 do
    ignore (Trie.add trie Trie.Document (chain_spine i) ~handle:i)
  done;
  let rng = Random.State.make [| 9 |] in
  for i = 0 to 99 do
    ignore (Trie.add trie Trie.Root (PP.random ~rng ~length:3 ~labels:chain_vocab ()) ~handle:(200 + i))
  done;
  let twigs = Streamq.Twig_matcher.bank ~anchored:true () in
  for i = 0 to 99 do
    let path = Xpath.Parser.parse (Printf.sprintf "//item[name]/description[text%d]" i) in
    match Streamq.Xpath_filter.twig_of path with
    | Some t -> ignore (Streamq.Twig_matcher.add twigs t)
    | None -> Alcotest.fail "not a twig"
  done;
  let p = Trie.pass trie and tp = Streamq.Twig_matcher.pass twigs in
  let words push reset =
    reset ();
    Array.iter push events;
    let w0 = Gc.minor_words () in
    for _ = 1 to 10 do
      reset ();
      for i = 0 to Array.length events - 1 do
        push events.(i)
      done
    done;
    Gc.minor_words () -. w0
  in
  let pw = words (Trie.push p) (fun () -> Trie.begin_doc p) in
  let tw = words (Streamq.Twig_matcher.push tp) (fun () -> Streamq.Twig_matcher.reset tp) in
  if pw > 16.0 || tw > 16.0 then
    Alcotest.failf "%d events allocated %.0f words in the trie pass, %.0f in the twig bank"
      (10 * Array.length events) pw tw

let suite =
  suite
  @ [
      prop_chains_in_index;
      Alcotest.test_case "workload CQs register as chains" `Quick test_workload_cqs_are_chains;
      Alcotest.test_case "churn allocation gate" `Quick test_churn_allocation_gate;
      Alcotest.test_case "slots follow live entries" `Quick test_slots_follow_live_entries;
      Alcotest.test_case "trie pass and twig bank allocate nothing per event" `Quick
        test_passes_allocate_nothing_per_event;
    ]
