open Treekit
open Helpers
module PP = Streamq.Path_pattern
module PM = Streamq.Path_matcher
module TM = Streamq.Twig_matcher
module Index = Subscribe.Index

let test_pattern_parse () =
  let p = PP.of_string "//a/b//*" in
  Alcotest.(check int) "length" 3 (PP.length p);
  Alcotest.(check string) "roundtrip" "//a/b//*" (PP.to_string p);
  Alcotest.(check bool) "bare name anchors anywhere" true
    (PP.of_string "a" = PP.of_string "//a");
  Alcotest.(check bool) "bad pattern" true
    (match PP.of_string "//" with
    | exception Treekit.Parse_error.Error { pos = 2; _ } -> true
    | _ -> false)

let test_pattern_xpath_bridge () =
  let p = PP.of_string "//a/b" in
  let x = PP.to_xpath p in
  Alcotest.(check bool) "recognised back" true (PP.of_xpath x = Some p);
  (* the //-desugared parser shape is recognised too *)
  let x2 = Xpath.Parser.parse "//a" in
  Alcotest.(check bool) "desugared //" true
    (PP.of_xpath x2 = Some (PP.of_string "//a"))

let test_matcher_fig2 () =
  let t = fig2_tree () in
  let sel s = PM.select t (PP.of_string s) in
  check_nodeset "//b" (Nodeset.of_list 7 [ 1; 5 ]) (sel "//b");
  check_nodeset "/a/b" (Nodeset.of_list 7 [ 5 ]) (sel "/a/b");
  check_nodeset "//b/a" (Nodeset.of_list 7 [ 2 ]) (sel "//b/a");
  check_nodeset "//zzz" (Nodeset.create 7) (sel "//zzz");
  Alcotest.(check bool) "matches" true (PM.matches t (PP.of_string "//c"));
  Alcotest.(check bool) "no match" false (PM.matches t (PP.of_string "//c/a"))

let stream_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* tseed = int_range 0 100_000 in
    let* len = int_range 1 5 in
    let* n = int_range 1 60 in
    return
      ( PP.random ~seed ~length:len ~labels:Generator.labels_abc (),
        random_tree ~seed:tseed ~n () ))

let prop_streaming_equals_in_memory =
  qtest ~count:300 "streaming select = in-memory XPath" stream_gen (fun (p, t) ->
      Nodeset.equal (PM.select t p) (Xpath.Eval.query t (PP.to_xpath p)))

let prop_memory_is_depth_bounded =
  qtest ~count:100 "peak memory = depth of tree, not size" stream_gen
    (fun (p, t) ->
      let stats = PM.run t p ~on_match:(fun _ -> ()) in
      stats.peak_depth = Tree.height t + 1 && stats.events = 2 * Tree.size t)

let test_memory_independent_of_width () =
  (* same depth, 100x more nodes: peak stays constant *)
  let p = PP.of_string "//a/b" in
  let narrow = Generator.full ~fanout:2 ~depth:3 () in
  let wide = Generator.full ~fanout:14 ~depth:3 () in
  let s1 = PM.run narrow p ~on_match:(fun _ -> ()) in
  let s2 = PM.run wide p ~on_match:(fun _ -> ()) in
  Alcotest.(check int) "same peak" s1.peak_depth s2.peak_depth;
  Alcotest.(check bool) "many more events" true (s2.events > 10 * s1.events)

let test_feed_incremental () =
  let t = fig2_tree () in
  let push, finish = PM.feed (PP.of_string "//b") in
  Event.iter t push;
  let stats = finish () in
  Alcotest.(check int) "matches" 2 stats.matches

(* twig matcher *)
let twig_gen =
  QCheck2.Gen.(
    let* qseed = int_range 0 50_000 in
    let* tseed = int_range 0 50_000 in
    let* nvars = int_range 1 5 in
    let* n = int_range 1 40 in
    let q =
      Cqtree.Generator.acyclic ~seed:qseed ~nvars
        ~axes:[ Axis.Child; Axis.Descendant ] ~labels:Generator.labels_abc ()
    in
    return (q, random_tree ~seed:tseed ~n ()))

let prop_twig_matcher =
  qtest ~count:250 "streaming twig = in-memory twig join" twig_gen (fun (q, t) ->
      match Actree.Twigjoin.of_query q with
      | None -> QCheck2.assume_fail ()
      | Some twig ->
        TM.matches t twig = (Actree.Twigjoin.solutions t twig <> []))

let test_twig_match_count () =
  let t = fig2_tree () in
  let twig =
    { Actree.Twigjoin.label = Some "a";
      children = [ (Actree.Twigjoin.Child_edge, { label = Some "b"; children = [] }) ] }
  in
  let stats = TM.run t twig in
  (* a-nodes with a b-child: 0 and 4 *)
  Alcotest.(check int) "match count" 2 stats.match_count;
  Alcotest.(check bool) "matched" true stats.matched

(* streaming XPath with qualifiers *)
let test_xpath_filter_examples () =
  let t = fig2_tree () in
  let check_q s want =
    match Streamq.Xpath_filter.matches t (Xpath.Parser.parse s) with
    | Some got -> Alcotest.(check bool) s want got
    | None -> Alcotest.fail ("unsupported: " ^ s)
  in
  check_q "//b[child::a]" true;
  check_q "//b[child::a][child::c]" true;
  check_q "//b[child::a and child::d]" false;
  check_q "//a[descendant::d]/b" true;
  (* leading child step: anchored at the root *)
  check_q "/b" true;
  check_q "/c" false;
  check_q "/a/b" true;
  check_q "//b/a/c" false;
  Alcotest.(check bool) "negation unsupported" true
    (Streamq.Xpath_filter.matches t (Xpath.Parser.parse "//a[not(b)]") = None);
  Alcotest.(check bool) "reverse axis unsupported" true
    (Streamq.Xpath_filter.matches t (Xpath.Parser.parse "//a/parent::*") = None)

let prop_xpath_filter =
  qtest ~count:300 "streaming qualified filter = in-memory evaluation"
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* tseed = int_range 0 100_000 in
      let* depth = int_range 0 3 in
      let* n = int_range 1 40 in
      return
        ( Xpath.Generator.random ~seed ~depth ~labels:Generator.labels_abc
            ~axes:[ Axis.Child; Axis.Descendant ] ~allow_negation:false
            ~allow_union:false (),
          random_tree ~seed:tseed ~n () ))
    (fun (p, t) ->
      match Streamq.Xpath_filter.matches t p with
      | None -> QCheck2.assume_fail ()
      | Some got -> got = not (Nodeset.is_empty (Xpath.Eval.query t p)))

(* reusable matcher state: a matcher reset between documents must behave
   exactly like a freshly constructed one (the subscription index keeps
   pooled matchers alive across an unbounded document stream) *)
let reuse_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 50_000 in
    let* len = int_range 1 4 in
    let* ts1 = int_range 0 50_000 in
    let* ts2 = int_range 0 50_000 in
    let* n1 = int_range 1 40 in
    let* n2 = int_range 1 40 in
    return
      ( PP.random ~seed ~length:len ~labels:Generator.labels_abc (),
        random_tree ~seed:ts1 ~n:n1 (),
        random_tree ~seed:ts2 ~n:n2 () ))

let prop_path_matcher_reset =
  qtest ~count:200 "path matcher: reset = fresh construction" reuse_gen
    (fun (p, t1, t2) ->
      let fired = ref [] in
      let m = PM.create p ~on_match:(fun i -> fired := i :: !fired) in
      Event.iter t1 (PM.push m);
      PM.reset m;
      fired := [];
      Event.iter t2 (PM.push m);
      let reused = (List.rev !fired, PM.stats m) in
      let fired' = ref [] in
      let m' = PM.create p ~on_match:(fun i -> fired' := i :: !fired') in
      Event.iter t2 (PM.push m');
      reused = (List.rev !fired', PM.stats m'))

let prop_twig_matcher_reset =
  qtest ~count:200 "twig matcher: reset = fresh construction"
    QCheck2.Gen.(
      let* qseed = int_range 0 50_000 in
      let* k = int_range 1 3 in
      let* nvars = int_range 1 4 in
      let* anchored = bool in
      let* ts1 = int_range 0 50_000 in
      let* ts2 = int_range 0 50_000 in
      let* n1 = int_range 1 40 in
      let* n2 = int_range 1 40 in
      (* the first document is cut after [cut] events, mid-stream when
         [cut < 2 * n1]: the reset must also clear the open nodes' frames *)
      let* cut = int_range 0 (2 * n1) in
      let qs =
        List.init k (fun i ->
            Cqtree.Generator.acyclic ~seed:(qseed + i) ~nvars
              ~axes:[ Axis.Child; Axis.Descendant ] ~labels:Generator.labels_abc ())
      in
      return (qs, anchored, random_tree ~seed:ts1 ~n:n1 (), cut, random_tree ~seed:ts2 ~n:n2 ()))
    (fun (qs, anchored, t1, cut, t2) ->
      match Array.of_list (List.filter_map Actree.Twigjoin.of_query qs) with
      | [||] -> QCheck2.assume_fail ()
      | twigs ->
        let m = TM.create ~anchored twigs in
        List.iteri (fun i ev -> if i < cut then TM.push m ev) (Event.to_list t1);
        TM.reset m;
        Event.iter t2 (TM.push m);
        let m' = TM.create ~anchored twigs in
        Event.iter t2 (TM.push m');
        List.for_all (fun j -> TM.stats m j = TM.stats m' j) (List.init (Array.length twigs) Fun.id))

(* filter engine: selective dissemination runs on Subscribe.Index, with
   a linear pattern registered as its XPath translation *)
let subscribe_pattern idx ~id s =
  Index.register idx ~id
    (Treequery.Engine.Xpath_query (PP.to_xpath (PP.of_string s)))

let test_filter_engine () =
  let idx = Index.create () in
  List.iteri
    (fun id s ->
      Alcotest.(check bool) s true (subscribe_pattern idx ~id s = Index.Spine))
    [ "//b"; "/a/b"; "//zzz"; "//b/a" ];
  Alcotest.(check int) "count" 4 (Index.live idx);
  Alcotest.(check (list int)) "matched subs" [ 0; 1; 3 ]
    (Index.match_tree (Index.session idx) (fig2_tree ()))

let test_filter_engine_xpath_subs () =
  let idx = Index.create () in
  let subscribe_xpath id s =
    Index.register idx ~id (Treequery.Engine.parse_xpath s)
  in
  ignore (subscribe_pattern idx ~id:0 "//b");
  let c1 = subscribe_xpath 1 "//b[child::a]" in
  let c2 = subscribe_xpath 2 "//b[child::d]" in
  let c3 = subscribe_xpath 3 "//a[not(b)]" in
  Alcotest.(check bool) "qualified accepted" true
    (c1 = Index.Twig && c2 = Index.Twig);
  Alcotest.(check bool) "negation classed general" true (c3 = Index.General);
  (* the leaf a under b has no b child *)
  Alcotest.(check (list int)) "mixed subscriptions" [ 0; 1; 3 ]
    (Index.match_tree (Index.session idx) (fig2_tree ()))

(* twig banks: many patterns in one pass *)

(* a random twig of 1–6 nodes over labels a, b, c and [*]: node i > 0
   hangs below a random earlier node, by a child or descendant edge *)
let random_twig_gen =
  QCheck2.Gen.(
    let* size = int_range 1 6 in
    let* parents = flatten_l (List.init (size - 1) (fun i -> int_range 0 i)) in
    let* child_edges = list_repeat (size - 1) bool in
    let* labels = list_repeat size (oneofl [ Some "a"; Some "b"; Some "c"; None ]) in
    let parents = Array.of_list (-1 :: parents) in
    let child_edges = Array.of_list (true :: child_edges) in
    let labels = Array.of_list labels in
    let rec node i =
      {
        Actree.Twigjoin.label = labels.(i);
        children =
          List.init size Fun.id
          |> List.filter (fun c -> parents.(c) = i)
          |> List.map (fun c ->
                 ( (if child_edges.(c) then Actree.Twigjoin.Child_edge
                    else Actree.Twigjoin.Descendant_edge),
                   node c ));
      }
    in
    return (node 0))

let prop_twig_bank =
  qtest ~count:300 "twig bank = per-pattern twig joins"
    QCheck2.Gen.(
      let* k = int_range 1 8 in
      let* twigs = list_repeat k random_twig_gen in
      let* anchored = bool in
      let* tseed = int_range 0 50_000 in
      let* n = int_range 1 30 in
      (* up to path-like trees, deeper than the bank's initial frame rows *)
      let* descend_bias = float_range 0.3 0.95 in
      return
        ( Array.of_list twigs,
          anchored,
          Generator.random_deep ~seed:tseed ~n ~labels:Generator.labels_abc ~descend_bias () ))
    (fun (twigs, anchored, t) ->
      let bank = TM.create ~anchored twigs in
      Event.iter t (TM.push bank);
      List.for_all
        (fun j ->
          (* the document nodes where pattern j's root matches; the
             document root is node 0 *)
          let roots =
            Actree.Twigjoin.solutions t twigs.(j)
            |> List.map (fun s -> s.(0))
            |> List.sort_uniq compare
            |> List.filter (fun v -> (not anchored) || v = 0)
          in
          TM.matched bank j = (roots <> [])
          && (TM.stats bank j).match_count = List.length roots)
        (List.init (Array.length twigs) Fun.id))

let test_twig_bank_anchored_label () =
  (* a[b]: anchored, the root's label is tested against the document root *)
  let twig =
    { Actree.Twigjoin.label = Some "a";
      children = [ (Actree.Twigjoin.Child_edge, { label = Some "b"; children = [] }) ] }
  in
  let check doc want =
    let bank = TM.create ~anchored:true [| twig |] in
    Event.iter (Xml.parse doc) (TM.push bank);
    Alcotest.(check bool) doc want (TM.matched bank 0)
  in
  check "<a><b/></a>" true;
  check "<c><a><b/></a></c>" false;
  check "<b><b/></b>" false;
  check "<a><c><b/></c></a>" false

let suite =
  [
    Alcotest.test_case "pattern parse" `Quick test_pattern_parse;
    Alcotest.test_case "pattern/xpath bridge" `Quick test_pattern_xpath_bridge;
    Alcotest.test_case "matcher on fig2" `Quick test_matcher_fig2;
    prop_streaming_equals_in_memory;
    prop_memory_is_depth_bounded;
    Alcotest.test_case "memory independent of width" `Quick test_memory_independent_of_width;
    Alcotest.test_case "incremental feed" `Quick test_feed_incremental;
    prop_twig_matcher;
    Alcotest.test_case "twig match count" `Quick test_twig_match_count;
    prop_path_matcher_reset;
    prop_twig_matcher_reset;
    Alcotest.test_case "qualified streaming filter examples" `Quick
      test_xpath_filter_examples;
    prop_xpath_filter;
    Alcotest.test_case "filter engine" `Quick test_filter_engine;
    Alcotest.test_case "filter engine: qualified XPath subscriptions" `Quick
      test_filter_engine_xpath_subs;
    prop_twig_bank;
    Alcotest.test_case "twig bank: anchored labelled root" `Quick
      test_twig_bank_anchored_label;
  ]
