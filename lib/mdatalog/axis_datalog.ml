module Q = Cqtree.Query
module Nodeset = Treekit.Nodeset

type rule = { head : string; head_var : Q.var; body : Q.atom list }

type program = { rules : rule list; query : string }

let c_rounds = Obs.Counter.make "fixpoint_rounds"

(* ------------------------------------------------------------------ *)
(* parsing: statements separated by '.' (string literals respected),
   the last one being the ?- query directive.  Errors are positioned
   [Treekit.Parse_error.Error]s carrying the offending statement's
   offset into the input. *)

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* (start offset, trimmed statement text) pairs *)
let statements input =
  let out = ref [] and buf = Buffer.create 64 in
  let in_string = ref false in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '"' then begin
        if Buffer.length buf = 0 then start := i;
        in_string := not !in_string;
        Buffer.add_char buf c
      end
      else if c = '.' && not !in_string then begin
        let s = String.trim (Buffer.contents buf) in
        if s <> "" then out := (!start, s) :: !out;
        Buffer.clear buf
      end
      else if Buffer.length buf = 0 && is_ws c then ()
      else begin
        if Buffer.length buf = 0 then start := i;
        Buffer.add_char buf c
      end)
    input;
  if String.trim (Buffer.contents buf) <> "" then
    Treekit.Parse_error.raise_at !start "missing final '.'";
  List.rev !out

let head_name pos stmt =
  match String.index_opt stmt '(' with
  | None -> Treekit.Parse_error.raise_at pos "expected 'name(Var) :- …'"
  | Some i -> String.trim (String.sub stmt 0 i)

let parse input =
  let stmts = statements input in
  let rec go acc = function
    | [] ->
      Treekit.Parse_error.raise_at (String.length input)
        "missing '?- pred.' directive"
    | [ (pos, last) ] ->
      if String.length last > 2 && String.sub last 0 2 = "?-" then
        { rules = List.rev acc;
          query = String.trim (String.sub last 2 (String.length last - 2)) }
      else Treekit.Parse_error.raise_at pos "last statement must be '?- pred.'"
    | (pos, stmt) :: rest ->
      let name = head_name pos stmt in
      let q =
        try Q.of_string (stmt ^ ".")
        with Treekit.Parse_error.Error { pos = at; msg } ->
          Treekit.Parse_error.raise_at (pos + at) "%s" msg
      in
      (match q.Q.head with
      | [ v ] -> go ({ head = name; head_var = v; body = q.Q.atoms } :: acc) rest
      | _ -> Treekit.Parse_error.raise_at pos "rule heads must be unary")
  in
  go [] stmts

(* ------------------------------------------------------------------ *)

let intensional p =
  List.sort_uniq compare (List.map (fun r -> r.head) p.rules)

let rule_query r = { Q.head = [ r.head_var ]; atoms = r.body }

let check p =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if p.rules = [] then err "program has no rules"
  else if not (List.mem p.query (intensional p)) then
    err "query predicate %s has no rule" p.query
  else
    let rec go = function
      | [] -> Ok ()
      | r :: rest -> (
        match Q.check (rule_query r) with
        | Error m -> err "rule for %s: %s" r.head m
        | Ok () ->
          if Cqtree.Join_tree.is_acyclic (rule_query r) then go rest
          else err "rule for %s has a cyclic body" r.head)
    in
    go p.rules

let fixpoint ~eval_rule ?(env = []) p tree =
  (match check p with
  | Ok () -> ()
  | Error m -> invalid_arg ("Axis_datalog: " ^ m));
  let n = Treekit.Tree.size tree in
  let sets = Hashtbl.create 8 in
  List.iter (fun nm -> Hashtbl.replace sets nm (Nodeset.create n)) (intensional p);
  let current_env () =
    Hashtbl.fold (fun nm s acc -> (nm, s) :: acc) sets [] @ env
  in
  Obs.Span.with_ "datalog:fixpoint" (fun () ->
      let changed = ref true in
      while !changed do
        changed := false;
        Obs.Counter.incr c_rounds;
        List.iter
          (fun r ->
            let result = eval_rule (rule_query r) tree (current_env ()) in
            let target = Hashtbl.find sets r.head in
            let before = Nodeset.cardinal target in
            Nodeset.union_into target result;
            if Nodeset.cardinal target <> before then changed := true)
          p.rules
      done);
  Hashtbl.find sets p.query

let run ?env p tree =
  fixpoint ?env p tree ~eval_rule:(fun q tree env -> Cqtree.Yannakakis.unary ~env q tree)

let run_naive ?env p tree =
  fixpoint ?env p tree ~eval_rule:(fun q tree env -> Cqtree.Naive.unary ~env q tree)

(* ------------------------------------------------------------------ *)

let of_tau_program (tau : Ast.program) =
  let conv_unary x : Ast.unary -> Q.atom = function
    | Ast.Dom -> Q.U (Q.True, x)
    | Ast.Root -> Q.U (Q.Root, x)
    | Ast.Leaf -> Q.U (Q.Leaf, x)
    | Ast.First_sibling -> Q.U (Q.First_sibling, x)
    | Ast.Last_sibling -> Q.U (Q.Last_sibling, x)
    | Ast.Lab a -> Q.U (Q.Lab a, x)
    | Ast.Pred nm -> Q.U (Q.Named nm, x)
  in
  let conv_atom : Ast.atom -> Q.atom list = function
    | Ast.U (u, x) -> [ conv_unary x u ]
    | Ast.B (Ast.First_child, x, y) ->
      [ Q.A (Treekit.Axis.Child, x, y); Q.U (Q.First_sibling, y) ]
    | Ast.B (Ast.Next_sibling, x, y) -> [ Q.A (Treekit.Axis.Next_sibling, x, y) ]
    | Ast.B (Ast.Child, x, y) -> [ Q.A (Treekit.Axis.Child, x, y) ]
  in
  {
    rules =
      List.map
        (fun (r : Ast.rule) ->
          { head = r.head; head_var = r.head_var; body = List.concat_map conv_atom r.body })
        tau.rules;
    query = tau.query;
  }
