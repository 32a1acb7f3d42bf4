module A = Automata.Automaton

type auto_expr =
  | Exists_label of string
  | Root_label of string
  | All_leaves of string
  | Count_mod of string * int * int
  | Every_desc of string * string
  | Adjacent of string * string
  | Conj of auto_expr * auto_expr
  | Disj of auto_expr * auto_expr
  | Compl of auto_expr

type setop =
  | Add of int
  | Remove of int
  | Add_range of int * int
  | Union_label of string
  | Inter_label of string
  | Diff_label of string
  | Complement

type query =
  | Xpath of Xpath.Ast.path
  | Cq of Cqtree.Query.t
  | Pattern of Streamq.Path_pattern.t
  | Auto of auto_expr
  | Axis_law of Treekit.Axis.t
  | Order_law of Treekit.Order.kind
  | Setops of setop list
  | Obs_report of Obs.Report.t
  | Latency_sample of float list
  | Standing of standing_op list

and standing_op =
  | S_register of query
  | S_unregister of int
  | S_match

type t = { tree : Treekit.Tree.t; query : query }

let rec automaton = function
  | Exists_label l -> A.exists_label l
  | Root_label l -> A.root_label l
  | All_leaves l -> A.all_leaves_labeled l
  | Count_mod (l, m, r) -> A.count_label_mod l ~modulus:m ~residue:r
  | Every_desc (a, b) -> A.every_a_has_b_descendant a b
  | Adjacent (a, b) -> A.adjacent_children a b
  | Conj (a, b) -> A.conj (automaton a) (automaton b)
  | Disj (a, b) -> A.disj (automaton a) (automaton b)
  | Compl a -> A.complement (automaton a)

let rec auto_size = function
  | Exists_label _ | Root_label _ | All_leaves _ | Count_mod _ | Every_desc _
  | Adjacent _ ->
    1
  | Conj (a, b) | Disj (a, b) -> 1 + auto_size a + auto_size b
  | Compl a -> 1 + auto_size a

let rec auto_to_string = function
  | Exists_label l -> Printf.sprintf "exists(%s)" l
  | Root_label l -> Printf.sprintf "root(%s)" l
  | All_leaves l -> Printf.sprintf "all-leaves(%s)" l
  | Count_mod (l, m, r) -> Printf.sprintf "count(%s) mod %d = %d" l m r
  | Every_desc (a, b) -> Printf.sprintf "every(%s)-has-desc(%s)" a b
  | Adjacent (a, b) -> Printf.sprintf "adjacent(%s,%s)" a b
  | Conj (a, b) -> Printf.sprintf "(%s & %s)" (auto_to_string a) (auto_to_string b)
  | Disj (a, b) -> Printf.sprintf "(%s | %s)" (auto_to_string a) (auto_to_string b)
  | Compl a -> Printf.sprintf "!%s" (auto_to_string a)

let setop_to_string = function
  | Add i -> Printf.sprintf "add %d" i
  | Remove i -> Printf.sprintf "remove %d" i
  | Add_range (lo, hi) -> Printf.sprintf "add-range %d %d" lo hi
  | Union_label l -> Printf.sprintf "union lab(%s)" l
  | Inter_label l -> Printf.sprintf "inter lab(%s)" l
  | Diff_label l -> Printf.sprintf "diff lab(%s)" l
  | Complement -> "complement"

let rec query_size = function
  | Xpath p -> Xpath.Ast.size p
  | Cq q -> Cqtree.Query.atom_count q
  | Pattern p -> Streamq.Path_pattern.length p
  | Auto e -> auto_size e
  | Axis_law _ | Order_law _ -> 1
  | Setops ops -> List.length ops
  | Obs_report r ->
    Obs.Report.span_count r
    + List.length r.Obs.Report.counters
    + List.length r.Obs.Report.histograms
    + List.length r.Obs.Report.profiles
  | Latency_sample xs -> List.length xs
  | Standing ops ->
    List.fold_left
      (fun acc op ->
        acc
        + match op with S_register q -> 1 + query_size q | S_unregister _ | S_match -> 1)
      0 ops

let rec query_to_string = function
  | Xpath p -> "xpath: " ^ Xpath.Ast.to_string p
  | Cq q -> "cq: " ^ Cqtree.Query.to_string q
  | Pattern p -> "pattern: " ^ Streamq.Path_pattern.to_string p
  | Auto e -> "automaton: " ^ auto_to_string e
  | Axis_law a -> "axis-law: " ^ Treekit.Axis.name a
  | Order_law k -> "order-law: " ^ Treekit.Order.kind_name k
  | Setops ops -> "setops: " ^ String.concat "; " (List.map setop_to_string ops)
  | Obs_report r -> "obs-report: " ^ Obs.Report.to_json r
  | Latency_sample xs ->
    "latency-sample: " ^ String.concat " " (List.map (Printf.sprintf "%g") xs)
  | Standing ops -> "standing: " ^ String.concat "; " (List.map standing_op_to_string ops)

and standing_op_to_string = function
  | S_register q -> Printf.sprintf "register(%s)" (query_to_string q)
  | S_unregister k -> Printf.sprintf "unregister %d" k
  | S_match -> "match"

let size c = Treekit.Tree.size c.tree + query_size c.query

let to_string c =
  Printf.sprintf "tree (%d nodes): %s\n%s" (Treekit.Tree.size c.tree)
    (Treekit.Xml.to_string c.tree)
    (query_to_string c.query)
