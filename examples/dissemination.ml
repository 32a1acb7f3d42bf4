(* Selective dissemination of information (SDI) — the stream-processing
   application from the paper's introduction: many subscribers register
   path queries in one standing-query index; each incoming document is
   scanned ONCE, in document order, with memory bounded by the document
   depth, and routed to the subscribers whose query matches.

   Run with:  dune exec examples/dissemination.exe *)

open Treekit

let subscriptions =
  [
    ("alice", "//open_auction//bidder");
    ("bob", "/regions//item");
    ("carol", "//person/profile");
    ("dave", "//closed_auction/price");
    ("erin", "//category/name");
    ("frank", "//annotation//zzz");
  ]

let () =
  (* register the subscriptions: subscription [id] is the id-th pattern,
     and every path spine merges into the index's shared prefix trie *)
  let index = Subscribe.Index.create () in
  let ids =
    List.mapi
      (fun id (who, pattern) ->
        let path = Streamq.Path_pattern.(to_xpath (of_string pattern)) in
        ignore (Subscribe.Index.register index ~id (Treequery.Engine.Xpath_query path));
        (id, who, pattern))
      subscriptions
  in
  let session = Subscribe.Index.session index in
  Printf.printf "%d subscriptions registered.\n\n" (List.length ids);

  (* a stream of incoming documents (XMark-like auction sites of varying
     size and content) *)
  let documents =
    List.map (fun seed -> (seed, Generator.xmark ~seed ~scale:(2 + (seed mod 5)) ())) [ 1; 2; 3; 4; 5 ]
  in
  List.iter
    (fun (seed, doc) ->
      let matched = Subscribe.Index.match_tree session doc in
      Printf.printf "document #%d (%d nodes, depth %d) -> deliver to: %s\n" seed
        (Tree.size doc) (Tree.height doc)
        (if matched = [] then "(nobody)"
         else
           String.concat ", "
             (List.map
                (fun id ->
                  let _, who, _ = List.find (fun (i, _, _) -> i = id) ids in
                  who)
                matched)))
    documents;

  (* the streaming guarantee: peak memory is one small frame per level of
     the document, never proportional to its size (Section 7's depth lower
     bound is tight) *)
  print_newline ();
  let wide = Generator.xmark ~seed:42 ~scale:60 () in
  let deep = Generator.random_deep ~seed:42 ~n:Tree.(size wide) ~labels:[| "a"; "b" |] ~descend_bias:0.9 () in
  List.iter
    (fun (name, doc) ->
      let stats =
        Streamq.Path_matcher.run doc
          (Streamq.Path_pattern.of_string "//a//b")
          ~on_match:(fun _ -> ())
      in
      Printf.printf "%-14s n=%6d depth=%5d -> peak stack frames: %d\n" name
        (Tree.size doc) (Tree.height doc) stats.peak_depth)
    [ ("wide (xmark)", wide); ("deep (skewed)", deep) ];

  (* cross-check against the in-memory engine *)
  let doc = Generator.xmark ~seed:9 ~scale:4 () in
  let consistent =
    List.for_all
      (fun (_, pattern) ->
        let p = Streamq.Path_pattern.of_string pattern in
        Nodeset.equal
          (Streamq.Path_matcher.select doc p)
          (Xpath.Eval.query doc (Streamq.Path_pattern.to_xpath p)))
      subscriptions
  in
  Printf.printf "\nstreaming results equal the in-memory XPath engine: %b\n" consistent
