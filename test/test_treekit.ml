open Treekit
open Helpers

(* ------------------------------------------------------------------ *)
(* Tree construction and accessors *)

let test_build_fig2 () =
  let t = fig2_tree () in
  Alcotest.(check int) "size" 7 (Tree.size t);
  Alcotest.(check int) "root" 0 (Tree.root t);
  Alcotest.(check string) "root label" "a" (Tree.label t 0);
  Alcotest.(check (list int)) "children of root" [ 1; 4 ] (Tree.children t 0);
  Alcotest.(check (list int)) "children of 1" [ 2; 3 ] (Tree.children t 1);
  Alcotest.(check int) "parent of 6" 4 (Tree.parent t 6);
  Alcotest.(check int) "first_child root" 1 (Tree.first_child t 0);
  Alcotest.(check int) "last_child root" 4 (Tree.last_child t 0);
  Alcotest.(check int) "next_sibling 1" 4 (Tree.next_sibling t 1);
  Alcotest.(check int) "prev_sibling 4" 1 (Tree.prev_sibling t 4);
  Alcotest.(check int) "height" 2 (Tree.height t);
  Alcotest.(check int) "subtree size of 1" 3 (Tree.subtree_size t 1)

let test_post_order_fig2 () =
  let t = fig2_tree () in
  (* Figure 2's post indexes are 1-based: node 1:7, 2:3, 3:1, 4:2, 5:6,
     6:4, 7:5 — 0-based: *)
  let expected = [ 6; 2; 0; 1; 5; 3; 4 ] in
  List.iteri
    (fun v want -> Alcotest.(check int) (Printf.sprintf "post %d" v) want (Tree.post t v))
    expected;
  List.iteri
    (fun i _ ->
      Alcotest.(check int) "post_inv" i (Tree.post t (Tree.node_of_post t i)))
    expected

let test_derived_predicates () =
  let t = fig2_tree () in
  Alcotest.(check bool) "root is root" true (Tree.is_root t 0);
  Alcotest.(check bool) "1 not root" false (Tree.is_root t 1);
  Alcotest.(check bool) "2 leaf" true (Tree.is_leaf t 2);
  Alcotest.(check bool) "1 not leaf" false (Tree.is_leaf t 1);
  Alcotest.(check bool) "1 first sibling" true (Tree.is_first_sibling t 1);
  Alcotest.(check bool) "4 last sibling" true (Tree.is_last_sibling t 4);
  Alcotest.(check bool) "1 not last" false (Tree.is_last_sibling t 1)

let test_single_node () =
  let t = Tree.of_builder (Tree.Node ("x", [])) in
  Alcotest.(check int) "size" 1 (Tree.size t);
  Alcotest.(check bool) "root leaf" true (Tree.is_leaf t 0);
  Alcotest.(check int) "post" 0 (Tree.post t 0);
  Alcotest.(check bool) "valid" true (Tree.validate t = Ok ())

let test_builder_roundtrip () =
  let b =
    Tree.Node ("r", [ Node ("x", [ Node ("y", []) ]); Node ("z", []) ])
  in
  let t = Tree.of_builder b in
  Alcotest.(check bool) "roundtrip" true (Tree.to_builder t = b)

let test_parent_vector_rejects_non_preorder () =
  (* node 1's subtree must be contiguous: parents [|-1; 0; 0; 1|] puts
     node 3 (child of 1) after node 2 (child of 0) — not a pre-order *)
  Alcotest.check_raises "non-preorder" (Invalid_argument
    "Tree.of_parent_vector: not a pre-order parent vector")
    (fun () ->
      ignore
        (Tree.of_parent_vector
           ~parents:[| -1; 0; 0; 1 |]
           ~labels:[| "a"; "a"; "a"; "a" |]
           ()))

let test_parent_vector_rejects_forward_parent () =
  Alcotest.check_raises "forward parent"
    (Invalid_argument "Tree.of_parent_vector: parent must precede node in pre-order")
    (fun () ->
      ignore
        (Tree.of_parent_vector ~parents:[| -1; 2; 0 |] ~labels:[| "a"; "a"; "a" |] ()))

let test_deep_tree () =
  let t = Generator.path ~n:50_000 () in
  Alcotest.(check int) "height" 49_999 (Tree.height t);
  Alcotest.(check bool) "valid" true (Tree.validate t = Ok ());
  Alcotest.(check int) "post of root" 49_999 (Tree.post t 0)

let prop_validate_random =
  qtest ~count:200 "random trees validate" (tree_gen ())
    (fun t -> Tree.validate t = Ok ())

let prop_builder_roundtrip =
  qtest ~count:100 "builder roundtrip" (tree_gen ())
    (fun t -> Tree.equal t (Tree.of_builder (Tree.to_builder t)))

let prop_subtree_size =
  qtest ~count:100 "subtree sizes sum to depth counts" (tree_gen ()) (fun t ->
      (* Σ_v size(v) = Σ_v (depth v + 1) *)
      let n = Tree.size t in
      let a = ref 0 and b = ref 0 in
      for v = 0 to n - 1 do
        a := !a + Tree.subtree_size t v;
        b := !b + Tree.depth t v + 1
      done;
      !a = !b)

(* ------------------------------------------------------------------ *)
(* Orders (Section 2) *)

let test_orders_fig2 () =
  let t = fig2_tree () in
  (* pre order is the node numbering *)
  Alcotest.(check bool) "pre 0<1" true (Order.lt t Order.Pre 0 1);
  (* post: node 2 (post 0) is least *)
  Alcotest.(check int) "post min" 2 (Order.node_of_rank t Order.Post 0);
  (* bflr: 0, then 1 4, then 2 3 5 6 *)
  Alcotest.(check (list int)) "bflr permutation" [ 0; 1; 4; 2; 3; 5; 6 ]
    (Array.to_list (Order.permutation t Order.Bflr))

let prop_order_defined_formulas =
  (* x <pre y ⇔ Child+(x,y) ∨ Following(x,y), etc. (Section 2) *)
  qtest ~count:100 "paper's order definitions" (tree_gen ()) (fun t ->
      let n = Tree.size t in
      let ok = ref true in
      for x = 0 to n - 1 do
        for y = 0 to n - 1 do
          if x <> y then
            List.iter
              (fun k ->
                if Order.lt t k x y <> Order.lt_defined t k x y then ok := false)
              Order.all_kinds
        done
      done;
      !ok)

let prop_pre_post_characterisation =
  (* Child+(x,y) ⇔ x <pre y ∧ y <post x;  Following(x,y) ⇔ x <pre y ∧ x <post y *)
  qtest ~count:100 "pre/post characterisation of axes" (tree_gen ()) (fun t ->
      let n = Tree.size t in
      let ok = ref true in
      for x = 0 to n - 1 do
        for y = 0 to n - 1 do
          let anc = Tree.is_ancestor t x y
          and fol = Tree.is_following t x y in
          let anc' = x < y && Tree.post t y < Tree.post t x in
          let fol' = x < y && Tree.post t x < Tree.post t y in
          if anc <> anc' || (x <> y && fol <> fol') then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Node sets *)

let test_nodeset_basic () =
  let s = Nodeset.create 10 in
  Alcotest.(check bool) "empty" true (Nodeset.is_empty s);
  Nodeset.add s 3;
  Nodeset.add s 7;
  Nodeset.add s 3;
  Alcotest.(check int) "cardinal" 2 (Nodeset.cardinal s);
  Alcotest.(check bool) "mem 3" true (Nodeset.mem s 3);
  Alcotest.(check bool) "mem 4" false (Nodeset.mem s 4);
  Nodeset.remove s 3;
  Alcotest.(check int) "after remove" 1 (Nodeset.cardinal s);
  Alcotest.(check (list int)) "elements" [ 7 ] (Nodeset.elements s);
  Alcotest.(check (option int)) "min" (Some 7) (Nodeset.min_elt s);
  Alcotest.(check (option int)) "max" (Some 7) (Nodeset.max_elt s)

let test_nodeset_ops () =
  let a = Nodeset.of_list 10 [ 1; 2; 3 ] and b = Nodeset.of_list 10 [ 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Nodeset.elements (Nodeset.union a b));
  Alcotest.(check (list int)) "inter" [ 3 ] (Nodeset.elements (Nodeset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Nodeset.elements (Nodeset.diff a b));
  Alcotest.(check int) "complement" 7 (Nodeset.cardinal (Nodeset.complement a));
  Alcotest.(check bool) "subset" true (Nodeset.subset (Nodeset.of_list 10 [ 2 ]) a);
  Alcotest.(check bool) "not subset" false (Nodeset.subset b a)

let prop_nodeset_union_cardinal =
  qtest ~count:200 "inclusion–exclusion"
    QCheck2.Gen.(
      let* n = int_range 1 64 in
      let* xs = list_size (int_range 0 40) (int_range 0 (n - 1)) in
      let* ys = list_size (int_range 0 40) (int_range 0 (n - 1)) in
      return (n, xs, ys))
    (fun (n, xs, ys) ->
      let a = Nodeset.of_list n xs and b = Nodeset.of_list n ys in
      Nodeset.cardinal (Nodeset.union a b) + Nodeset.cardinal (Nodeset.inter a b)
      = Nodeset.cardinal a + Nodeset.cardinal b)

(* ------------------------------------------------------------------ *)
(* Labels *)

let test_label_interning () =
  let tbl = Label.create_table () in
  let a = Label.intern tbl "alpha" in
  let b = Label.intern tbl "beta" in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check int) "idempotent" a (Label.intern tbl "alpha");
  Alcotest.(check string) "name" "beta" (Label.name tbl b);
  Alcotest.(check int) "count" 2 (Label.count tbl);
  Alcotest.(check (option int)) "find" (Some a) (Label.find tbl "alpha");
  Alcotest.(check (option int)) "find missing" None (Label.find tbl "gamma")

let test_label_many () =
  let tbl = Label.create_table () in
  for i = 0 to 999 do
    ignore (Label.intern tbl (string_of_int i))
  done;
  Alcotest.(check int) "1000 labels" 1000 (Label.count tbl);
  Alcotest.(check string) "round trip" "437"
    (Label.name tbl (Label.intern tbl "437"))

(* ------------------------------------------------------------------ *)
(* XML *)

let test_xml_parse () =
  let t = Xml.parse "<r><a x=\"1\"><b/></a><!-- note --><c/></r>" in
  Alcotest.(check int) "size" 4 (Tree.size t);
  Alcotest.(check string) "labels" "r(a(b), c)" (Format.asprintf "%a" Tree.pp t)

let test_xml_skips_text_and_pi () =
  let t = Xml.parse "<?xml version=\"1.0\"?><r>hello <b>world</b> bye</r>" in
  Alcotest.(check int) "size" 2 (Tree.size t)

let test_xml_attr_with_gt () =
  let t = Xml.parse "<r><a title=\"x > y\"/></r>" in
  Alcotest.(check int) "size" 2 (Tree.size t)

(* every reader error is positioned *)
let test_xml_errors () =
  let offset input =
    match Xml.parse input with
    | exception Parse_error.Error { pos; _ } -> pos
    | _ -> -1
  in
  Alcotest.(check int) "mismatch: after the closing tag" 10 (offset "<a><b></a></b>");
  Alcotest.(check int) "unclosed: at the end" 6 (offset "<a><b>");
  Alcotest.(check int) "empty: at the end" 3 (offset "   ");
  Alcotest.(check int) "two roots: at the second" 5 (offset "<a/> <b/>");
  Alcotest.(check int) "fragment, empty: at the end" 7
    (match Xml.parse_fragment "<!---->" with exception Parse_error.Error { pos; _ } -> pos | _ -> -1)

let test_xml_fragment () =
  let t = Xml.parse_fragment "<a/><b/>" in
  Alcotest.(check string) "wrapped" "#root(a, b)" (Format.asprintf "%a" Tree.pp t)

let prop_xml_roundtrip =
  qtest ~count:100 "xml roundtrip" (tree_gen ()) (fun t ->
      Tree.equal t (Xml.parse (Xml.to_string t)))

(* ------------------------------------------------------------------ *)
(* Events *)

let test_events_fig2 () =
  let t = fig2_tree () in
  let evs = Event.to_list t in
  Alcotest.(check int) "count" 14 (List.length evs);
  (* opens in pre-order, closes in post-order *)
  let opens = List.filter_map (function Event.Open { node; _ } -> Some node | _ -> None) evs in
  let closes = List.filter_map (function Event.Close { node; _ } -> Some node | _ -> None) evs in
  Alcotest.(check (list int)) "opens = pre" [ 0; 1; 2; 3; 4; 5; 6 ] opens;
  Alcotest.(check (list int)) "closes = post order"
    (List.init 7 (Tree.node_of_post t))
    closes

let prop_events_balanced =
  qtest ~count:100 "events nest properly" (tree_gen ()) (fun t ->
      let depth = ref 0 and ok = ref true and count = ref 0 in
      Event.iter t (fun ev ->
          incr count;
          match ev with
          | Event.Open { depth = d; _ } ->
            if d <> !depth then ok := false;
            incr depth
          | Event.Close { depth = d; _ } ->
            decr depth;
            if d <> !depth then ok := false);
      !ok && !depth = 0 && !count = Event.count t)

let prop_events_seq_matches_iter =
  qtest ~count:50 "to_seq = iter" (tree_gen ()) (fun t ->
      let via_iter = ref [] in
      Event.iter t (fun ev -> via_iter := ev :: !via_iter);
      List.rev !via_iter = Event.to_list t)

(* ------------------------------------------------------------------ *)
(* Binary representation (Figure 1) *)

let test_binary_rep_fig2 () =
  let t = fig2_tree () in
  let b = Binary_rep.of_tree t in
  Alcotest.(check int) "n" 7 b.n;
  Alcotest.(check bool) "firstchild edges" true
    (b.first_child = [ (0, 1); (1, 2); (4, 5) ]);
  Alcotest.(check bool) "nextsibling edges" true
    (b.next_sibling = [ (1, 4); (2, 3); (5, 6) ])

let prop_binary_roundtrip =
  qtest ~count:150 "binary representation roundtrip" (tree_gen ()) (fun t ->
      Tree.equal t (Binary_rep.to_tree (Binary_rep.of_tree t)))

let test_binary_rejects_garbage () =
  let broken =
    { Binary_rep.n = 3; first_child = [ (0, 1) ]; next_sibling = [];
      labels = [| "a"; "a"; "a" |] }
  in
  (* node 2 unreachable *)
  Alcotest.(check bool) "unreachable rejected" true
    (match Binary_rep.to_tree broken with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* XASR (Figure 2) *)

let test_xasr_fig2 () =
  let t = fig2_tree () in
  let rows = Labeling.xasr t in
  let expected =
    [
      (1, 7, None, "a");
      (2, 3, Some 1, "b");
      (3, 1, Some 2, "a");
      (4, 2, Some 2, "c");
      (5, 6, Some 1, "a");
      (6, 4, Some 5, "b");
      (7, 5, Some 5, "d");
    ]
  in
  List.iteri
    (fun i (pre, post, parent_pre, lab) ->
      let r = rows.(i) in
      Alcotest.(check int) "pre" pre r.Labeling.pre;
      Alcotest.(check int) "post" post r.Labeling.post;
      Alcotest.(check (option int)) "parent" parent_pre r.Labeling.parent_pre;
      Alcotest.(check string) "lab" lab r.Labeling.lab)
    expected

let prop_xasr_decides_axes =
  qtest ~count:60 "XASR rows decide the axes" (tree_gen ~max_n:15 ()) (fun t ->
      let rows = Labeling.xasr t in
      let n = Tree.size t in
      let ok = ref true in
      let decidable =
        List.filter
          (fun a -> a <> Axis.Next_sibling && a <> Axis.Prev_sibling)
          Axis.all
      in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          List.iter
            (fun a ->
              if Labeling.decide_axis a rows.(u) rows.(v) <> Axis.mem t a u v then
                ok := false)
            decidable
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_all_shapes_catalan () =
  (* Catalan numbers 1, 1, 2, 5, 14, 42 for 1..6 nodes *)
  List.iter
    (fun (n, catalan) ->
      Alcotest.(check int)
        (Printf.sprintf "shapes of size %d" n)
        catalan
        (List.length (Generator.all_shapes ~n)))
    [ (1, 1); (2, 1); (3, 2); (4, 5); (5, 14); (6, 42) ]

let test_all_shapes_distinct () =
  let shapes = Generator.all_shapes ~n:5 in
  let reprs = List.map (Format.asprintf "%a" Tree.pp) shapes in
  Alcotest.(check int) "all distinct" 14 (List.length (List.sort_uniq compare reprs))

let test_generator_shapes () =
  let star = Generator.star ~n:100 () in
  Alcotest.(check int) "star height" 1 (Tree.height star);
  let p = Generator.path ~n:100 () in
  Alcotest.(check int) "path height" 99 (Tree.height p);
  let f = Generator.full ~fanout:3 ~depth:4 () in
  Alcotest.(check int) "full size" 121 (Tree.size f);
  Alcotest.(check int) "full height" 4 (Tree.height f)

let test_generator_deterministic () =
  let a = Generator.random ~seed:5 ~n:500 ~labels:Generator.labels_abc () in
  let b = Generator.random ~seed:5 ~n:500 ~labels:Generator.labels_abc () in
  Alcotest.(check bool) "same seed same tree" true (Tree.equal a b);
  let c = Generator.random ~seed:6 ~n:500 ~labels:Generator.labels_abc () in
  Alcotest.(check bool) "different seed different tree" false (Tree.equal a c)

let test_generator_deep_bias () =
  let shallow = Generator.random_deep ~seed:1 ~n:2000 ~labels:Generator.labels_abc ~descend_bias:0.2 () in
  let deep = Generator.random_deep ~seed:1 ~n:2000 ~labels:Generator.labels_abc ~descend_bias:0.95 () in
  Alcotest.(check bool) "bias increases depth" true (Tree.height deep > Tree.height shallow)

let test_xmark () =
  let t = Generator.xmark ~seed:3 ~scale:2 () in
  Alcotest.(check string) "root" "site" (Tree.label t 0);
  Alcotest.(check bool) "valid" true (Tree.validate t = Ok ());
  Alcotest.(check bool) "has items" true (Tree.nodes_with_label t "item" <> [])

let suite =
  [
    Alcotest.test_case "build fig2" `Quick test_build_fig2;
    Alcotest.test_case "post order fig2" `Quick test_post_order_fig2;
    Alcotest.test_case "derived predicates" `Quick test_derived_predicates;
    Alcotest.test_case "single node" `Quick test_single_node;
    Alcotest.test_case "builder roundtrip" `Quick test_builder_roundtrip;
    Alcotest.test_case "reject non-preorder vector" `Quick test_parent_vector_rejects_non_preorder;
    Alcotest.test_case "reject forward parent" `Quick test_parent_vector_rejects_forward_parent;
    Alcotest.test_case "deep tree (50k path)" `Quick test_deep_tree;
    prop_validate_random;
    prop_builder_roundtrip;
    prop_subtree_size;
    Alcotest.test_case "orders on fig2" `Quick test_orders_fig2;
    prop_order_defined_formulas;
    prop_pre_post_characterisation;
    Alcotest.test_case "nodeset basics" `Quick test_nodeset_basic;
    Alcotest.test_case "nodeset operations" `Quick test_nodeset_ops;
    prop_nodeset_union_cardinal;
    Alcotest.test_case "label interning" `Quick test_label_interning;
    Alcotest.test_case "label scaling" `Quick test_label_many;
    Alcotest.test_case "xml parse" `Quick test_xml_parse;
    Alcotest.test_case "xml text/PI skipped" `Quick test_xml_skips_text_and_pi;
    Alcotest.test_case "xml attr with >" `Quick test_xml_attr_with_gt;
    Alcotest.test_case "xml errors" `Quick test_xml_errors;
    Alcotest.test_case "xml fragment" `Quick test_xml_fragment;
    prop_xml_roundtrip;
    Alcotest.test_case "events fig2" `Quick test_events_fig2;
    prop_events_balanced;
    prop_events_seq_matches_iter;
    Alcotest.test_case "binary rep fig2" `Quick test_binary_rep_fig2;
    prop_binary_roundtrip;
    Alcotest.test_case "binary rep rejects garbage" `Quick test_binary_rejects_garbage;
    Alcotest.test_case "XASR fig2 matches the paper" `Quick test_xasr_fig2;
    prop_xasr_decides_axes;
    Alcotest.test_case "all_shapes = Catalan" `Quick test_all_shapes_catalan;
    Alcotest.test_case "all_shapes distinct" `Quick test_all_shapes_distinct;
    Alcotest.test_case "generator extreme shapes" `Quick test_generator_shapes;
    Alcotest.test_case "generator determinism" `Quick test_generator_deterministic;
    Alcotest.test_case "generator depth bias" `Quick test_generator_deep_bias;
    Alcotest.test_case "xmark document" `Quick test_xmark;
  ]
