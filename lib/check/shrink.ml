module Tree = Treekit.Tree

let parents_of t = Array.init (Tree.size t) (Tree.parent t)

let labels_of t = Array.init (Tree.size t) (Tree.label t)

let rebuild parents labels = Tree.of_parent_vector ~parents ~labels ()

(* remove the pre-order positions [k, k+len) and remap surviving parents *)
let remove_range parents labels k len =
  let n = Array.length parents in
  let keep i = i < k || i >= k + len in
  let remap i = if i < k then i else i - len in
  let parents' = Array.make (n - len) (-1) in
  let labels' = Array.make (n - len) "" in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      let p = parents.(i) in
      parents'.(!j) <- (if p < 0 then -1 else remap p);
      labels'.(!j) <- labels.(i);
      incr j
    end
  done;
  (parents', labels')

let delete_subtree t k =
  let parents = parents_of t and labels = labels_of t in
  let parents', labels' = remove_range parents labels k (Tree.subtree_size t k) in
  rebuild parents' labels'

(* children of [k] reattach to [k]'s parent; the remaining positions are
   still a valid pre-order of the contracted tree *)
let contract t k =
  let parents = parents_of t in
  let labels = labels_of t in
  Array.iteri (fun i p -> if p = k then parents.(i) <- parents.(k)) parents;
  let parents', labels' = remove_range parents labels k 1 in
  rebuild parents' labels'

let subtree_as_root t k =
  let sz = Tree.subtree_size t k in
  let parents = Array.init sz (fun i ->
      if i = 0 then -1 else Tree.parent t (k + i) - k)
  in
  let labels = Array.init sz (fun i -> Tree.label t (k + i)) in
  rebuild parents labels

let relabel t k l =
  let labels = labels_of t in
  labels.(k) <- l;
  rebuild (parents_of t) labels

let tree_candidates t =
  let n = Tree.size t in
  let by_size =
    (* delete big subtrees before leaves: fastest descent first *)
    List.init (n - 1) (fun i -> i + 1)
    |> List.sort (fun a b -> compare (Tree.subtree_size t b) (Tree.subtree_size t a))
  in
  let deletions = List.to_seq by_size |> Seq.map (fun k -> delete_subtree t k) in
  let promotions =
    List.to_seq by_size
    |> Seq.filter (fun k -> Tree.parent t k = 0)
    |> Seq.map (fun k -> subtree_as_root t k)
  in
  let contractions =
    List.to_seq (List.init (max 0 (n - 1)) (fun i -> i + 1))
    |> Seq.map (fun k -> contract t k)
  in
  let relabels =
    List.to_seq (List.init n (fun i -> i))
    |> Seq.filter (fun k -> Tree.label t k <> "a")
    |> Seq.map (fun k -> relabel t k "a")
  in
  Seq.append deletions (Seq.append promotions (Seq.append contractions relabels))

(* ------------------------------------------------------------------ *)
(* Query shrinking *)

let rec shrink_path (p : Xpath.Ast.path) : Xpath.Ast.path list =
  match p with
  | Xpath.Ast.Seq (a, b) ->
    [ a; b ]
    @ List.map (fun a' -> Xpath.Ast.Seq (a', b)) (shrink_path a)
    @ List.map (fun b' -> Xpath.Ast.Seq (a, b')) (shrink_path b)
  | Xpath.Ast.Union (a, b) ->
    [ a; b ]
    @ List.map (fun a' -> Xpath.Ast.Union (a', b)) (shrink_path a)
    @ List.map (fun b' -> Xpath.Ast.Union (a, b')) (shrink_path b)
  | Xpath.Ast.Step { axis; quals } ->
    let drop_one =
      List.mapi
        (fun i _ ->
          Xpath.Ast.Step
            { axis; quals = List.filteri (fun j _ -> j <> i) quals })
        quals
    in
    let shrink_in_place =
      List.concat
        (List.mapi
           (fun i q ->
             List.map
               (fun q' ->
                 Xpath.Ast.Step
                   {
                     axis;
                     quals = List.mapi (fun j q0 -> if j = i then q' else q0) quals;
                   })
               (shrink_qual q))
           quals)
    in
    drop_one @ shrink_in_place

and shrink_qual (q : Xpath.Ast.qual) : Xpath.Ast.qual list =
  match q with
  | Xpath.Ast.Lab _ -> []
  | Xpath.Ast.Exists p -> List.map (fun p' -> Xpath.Ast.Exists p') (shrink_path p)
  | Xpath.Ast.And (a, b) ->
    [ a; b ]
    @ List.map (fun a' -> Xpath.Ast.And (a', b)) (shrink_qual a)
    @ List.map (fun b' -> Xpath.Ast.And (a, b')) (shrink_qual b)
  | Xpath.Ast.Or (a, b) ->
    [ a; b ]
    @ List.map (fun a' -> Xpath.Ast.Or (a', b)) (shrink_qual a)
    @ List.map (fun b' -> Xpath.Ast.Or (a, b')) (shrink_qual b)
  | Xpath.Ast.Not a -> a :: List.map (fun a' -> Xpath.Ast.Not a') (shrink_qual a)

let shrink_cq (q : Cqtree.Query.t) : Cqtree.Query.t list =
  let drop_atom =
    List.mapi
      (fun i _ ->
        { q with Cqtree.Query.atoms = List.filteri (fun j _ -> j <> i) q.atoms })
      q.Cqtree.Query.atoms
  in
  let drop_head =
    if List.length q.Cqtree.Query.head > 1 then
      List.mapi
        (fun i _ ->
          { q with Cqtree.Query.head = List.filteri (fun j _ -> j <> i) q.head })
        q.Cqtree.Query.head
    else []
  in
  (* only keep safe queries: every head variable still bound by an atom *)
  List.filter
    (fun q' -> Result.is_ok (Cqtree.Query.check q'))
    (drop_atom @ drop_head)

let shrink_pattern (p : Streamq.Path_pattern.t) : Streamq.Path_pattern.t list =
  let drop_step =
    if List.length p > 1 then
      List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) p) p
    else []
  in
  let drop_label =
    List.concat
      (List.mapi
         (fun i (s : Streamq.Path_pattern.step) ->
           match s.label with
           | None -> []
           | Some _ ->
             [
               List.mapi
                 (fun j (s0 : Streamq.Path_pattern.step) ->
                   if j = i then { s0 with label = None } else s0)
                 p;
             ])
         p)
  in
  drop_step @ drop_label

let rec shrink_auto (e : Case.auto_expr) : Case.auto_expr list =
  match e with
  | Case.Conj (a, b) ->
    [ a; b ]
    @ List.map (fun a' -> Case.Conj (a', b)) (shrink_auto a)
    @ List.map (fun b' -> Case.Conj (a, b')) (shrink_auto b)
  | Case.Disj (a, b) ->
    [ a; b ]
    @ List.map (fun a' -> Case.Disj (a', b)) (shrink_auto a)
    @ List.map (fun b' -> Case.Disj (a, b')) (shrink_auto b)
  | Case.Compl a -> a :: List.map (fun a' -> Case.Compl a') (shrink_auto a)
  | Case.Exists_label _ | Case.Root_label _ | Case.All_leaves _
  | Case.Count_mod _ | Case.Every_desc _ | Case.Adjacent _ ->
    []

let shrink_setops ops =
  let drop_one =
    if List.length ops > 1 then
      List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) ops) ops
    else []
  in
  let simplify =
    List.concat
      (List.mapi
         (fun i op ->
           match op with
           | Case.Add_range (a, _) ->
             [ List.mapi (fun j o -> if j = i then Case.Add a else o) ops ]
           | _ -> [])
         ops)
  in
  drop_one @ simplify

let rec query_candidates = function
  | Case.Xpath p -> List.map (fun p' -> Case.Xpath p') (shrink_path p)
  | Case.Cq q -> List.map (fun q' -> Case.Cq q') (shrink_cq q)
  | Case.Pattern p -> List.map (fun p' -> Case.Pattern p') (shrink_pattern p)
  | Case.Auto e -> List.map (fun e' -> Case.Auto e') (shrink_auto e)
  | Case.Axis_law _ | Case.Order_law _ -> []
  | Case.Setops ops -> List.map (fun o -> Case.Setops o) (shrink_setops ops)
  (* a failing report is already a self-contained repro: the JSON in the
     report line replays it without shrinking *)
  | Case.Obs_report _ -> []
  | Case.Latency_sample xs ->
    if List.length xs > 1 then
      List.mapi
        (fun i _ -> Case.Latency_sample (List.filteri (fun j _ -> j <> i) xs))
        xs
    else []
  | Case.Standing ops ->
    (* drop one op (unregister IDs are script positions, resolved
       leniently at interpretation, so dropped registrations leave the
       script valid), then shrink registered queries in place *)
    let drop_one =
      if List.length ops > 1 then
        List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) ops) ops
      else []
    in
    let shrink_in_place =
      List.concat
        (List.mapi
           (fun i op ->
             match op with
             | Case.S_register q ->
               List.map
                 (fun q' ->
                   List.mapi
                     (fun j o -> if j = i then Case.S_register q' else o)
                     ops)
                 (query_candidates q)
             | Case.S_unregister _ | Case.S_match -> [])
           ops)
    in
    List.map (fun o -> Case.Standing o) (drop_one @ shrink_in_place)

let candidates (c : Case.t) =
  let queries =
    List.to_seq (query_candidates c.query)
    |> Seq.map (fun q -> { c with Case.query = q })
  in
  let trees =
    tree_candidates c.tree |> Seq.map (fun t -> { c with Case.tree = t })
  in
  Seq.append queries trees

let minimize ?(budget = 4000) ~still_fails c0 =
  let attempts = ref 0 in
  let steps = ref 0 in
  let rec loop c =
    let rec scan seq =
      if !attempts >= budget then None
      else
        match seq () with
        | Seq.Nil -> None
        | Seq.Cons (cand, rest) ->
          incr attempts;
          if still_fails cand then Some cand else scan rest
    in
    match scan (candidates c) with
    | Some smaller ->
      incr steps;
      loop smaller
    | None -> c
  in
  let result = loop c0 in
  (result, !steps)
