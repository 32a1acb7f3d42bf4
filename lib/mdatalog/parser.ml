type token =
  | NAME of string
  | VAR of string
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | TURNSTILE
  | QUERY
  | EOF

(* every token carries the offset it starts at, so an error names a
   position in the input *)
let tokenize input =
  let n = String.length input in
  let toks = ref [] in
  let pos = ref 0 in
  let emit tok start = toks := (tok, start) :: !toks in
  let is_alpha = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false in
  while !pos < n do
    let c = input.[!pos] and start = !pos in
    match c with
    | ' ' | '\t' | '\n' | '\r' -> incr pos
    | '%' ->
      while !pos < n && input.[!pos] <> '\n' do
        incr pos
      done
    | '(' | ')' | ',' | '.' ->
      emit (match c with '(' -> LPAREN | ')' -> RPAREN | ',' -> COMMA | _ -> DOT) start;
      incr pos
    | ':' | '?' ->
      if !pos + 1 < n && input.[!pos + 1] = '-' then begin
        emit (if c = ':' then TURNSTILE else QUERY) start;
        pos := !pos + 2
      end
      else Treekit.Parse_error.raise_at start "expected '%c-'" c
    | '"' ->
      let j = ref (start + 1) in
      while !j < n && input.[!j] <> '"' do
        incr j
      done;
      if !j >= n then Treekit.Parse_error.raise_at start "unterminated string literal";
      emit (STRING (String.sub input (start + 1) (!j - start - 1))) start;
      pos := !j + 1
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      while !pos < n && is_alpha input.[!pos] do
        incr pos
      done;
      let word = String.sub input start (!pos - start) in
      emit (match word.[0] with 'A' .. 'Z' | '_' -> VAR word | _ -> NAME word) start
    | _ -> Treekit.Parse_error.raise_at start "unexpected character %C" c
  done;
  List.rev ((EOF, n) :: !toks)

type stream = { mutable toks : (token * int) list }

let peek st = match st.toks with [] -> EOF | (t, _) :: _ -> t

(* where the next token starts: the offset an error there points at *)
let here st = match st.toks with [] -> 0 | (_, pos) :: _ -> pos

let error st fmt = Treekit.Parse_error.raise_at (here st) fmt

(* consume the next token when [f] accepts it (the EOF sentinel stays);
   an error at it otherwise *)
let take st f what =
  match (f (peek st), st.toks) with
  | Some v, _ :: (_ :: _ as rest) ->
    st.toks <- rest;
    v
  | Some v, _ -> v
  | None, _ -> error st "expected %s" what

let expect st tok what = take st (fun t -> if t = tok then Some () else None) what

let unary_of_name ~at name x : Ast.atom =
  match name with
  | "dom" -> U (Dom, x)
  | "root" -> U (Root, x)
  | "leaf" -> U (Leaf, x)
  | "firstsibling" -> U (First_sibling, x)
  | "lastsibling" -> U (Last_sibling, x)
  | "lab" -> Treekit.Parse_error.raise_at at "lab/1 is not a predicate; use lab(X, \"a\")"
  | "firstchild" | "nextsibling" | "child" ->
    Treekit.Parse_error.raise_at at "%s is binary" name
  | p -> U (Pred p, x)

let parse_atom st : Ast.atom =
  (* errors about the predicate itself point at its name *)
  let at = here st in
  let name = take st (function NAME nm -> Some nm | _ -> None) "a predicate name" in
  expect st LPAREN "'('";
  let first = take st (function VAR x -> Some x | _ -> None) "a variable" in
  match take st (function (RPAREN | COMMA) as t -> Some t | _ -> None) "',' or ')'" with
  | RPAREN -> unary_of_name ~at name first
  | _ ->
    let atom : Ast.atom =
      match
        take st
          (function STRING l -> Some (`Lab l) | VAR y -> Some (`Var y) | _ -> None)
          "a variable or string literal"
      with
      | `Lab l when name = "lab" -> U (Lab l, first)
      | `Lab _ -> Treekit.Parse_error.raise_at at "only lab/2 takes a string argument"
      | `Var y -> (
        match name with
        | "firstchild" -> B (First_child, first, y)
        | "nextsibling" -> B (Next_sibling, first, y)
        | "child" -> B (Child, first, y)
        | "lab" -> Treekit.Parse_error.raise_at at "lab/2 takes a string as second argument"
        | other -> Treekit.Parse_error.raise_at at "%s is not a binary predicate" other)
    in
    expect st RPAREN "')'";
    atom

let parse_clause st : Ast.rule =
  let start = here st in
  let head, head_var =
    match parse_atom st with
    | U (Pred p, x) -> (p, x)
    | _ ->
      Treekit.Parse_error.raise_at start
        "rule head must be an intensional unary predicate"
  in
  match take st (function (DOT | TURNSTILE) as t -> Some t | _ -> None) "':-' or '.'" with
  | DOT -> { head; head_var; body = [ U (Ast.Dom, head_var) ] }
  | _ ->
    let rec atoms acc =
      let a = parse_atom st in
      match take st (function (COMMA | DOT) as t -> Some t | _ -> None) "',' or '.'" with
      | COMMA -> atoms (a :: acc)
      | _ -> List.rev (a :: acc)
    in
    { head; head_var; body = atoms [] }

let parse input : Ast.program =
  let st = { toks = tokenize input } in
  let rec clauses acc =
    match peek st with
    | EOF -> error st "missing query directive '?- pred.'"
    | QUERY ->
      expect st QUERY "'?-'";
      let q =
        take st (function NAME nm -> Some nm | _ -> None) "a predicate name after '?-'"
      in
      expect st DOT "'.'";
      if peek st <> EOF then error st "trailing input after query directive";
      { Ast.rules = List.rev acc; query = q }
    | _ -> clauses (parse_clause st :: acc)
  in
  clauses []
