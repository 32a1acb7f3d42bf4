type state = { input : string; mutable pos : int }

let error st fmt = Parse_error.raise_at st.pos fmt

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let skip_spaces st =
  while (match peek st with Some c when is_space c -> true | _ -> false) do
    advance st
  done

let skip_until st sub =
  (* advance past the next occurrence of [sub] *)
  let n = String.length st.input and k = String.length sub in
  let rec go i =
    if i + k > n then error st "unterminated construct (expected %S)" sub
    else if String.sub st.input i k = sub then st.pos <- i + k
    else go (i + 1)
  in
  go st.pos

let read_name st =
  let start = st.pos in
  while (match peek st with Some c when is_name_char c -> true | _ -> false) do
    advance st
  done;
  if st.pos = start then error st "expected a name";
  String.sub st.input start (st.pos - start)

let skip_attributes st =
  (* consume everything up to '>' or '/>'; attribute values may contain '>' *)
  let rec go () =
    skip_spaces st;
    match peek st with
    | None -> error st "unterminated tag"
    | Some '>' | Some '/' -> ()
    | Some '"' ->
      advance st;
      skip_until st "\"";
      go ()
    | Some '\'' ->
      advance st;
      skip_until st "'";
      go ()
    | Some _ ->
      advance st;
      go ()
  in
  go ()

let skip_misc st =
  (* skip text, comments, PIs, doctype between elements *)
  let rec go () =
    match peek st with
    | None -> ()
    | Some '<' ->
      if st.pos + 3 < String.length st.input && String.sub st.input st.pos 4 = "<!--"
      then begin
        skip_until st "-->";
        go ()
      end
      else if st.pos + 1 < String.length st.input && st.input.[st.pos + 1] = '?' then begin
        skip_until st "?>";
        go ()
      end
      else if st.pos + 1 < String.length st.input && st.input.[st.pos + 1] = '!' then begin
        skip_until st ">";
        go ()
      end
      else ()
    | Some _ ->
      advance st;
      go ()
  in
  go ()

(* Iterative element parser: maintains a stack of (label, reversed children). *)
let parse_elements st =
  let stack = ref [] in
  let completed = ref [] in
  let first_end = ref 0 in
  let finish_element lbl kids =
    let node = Tree.Node (lbl, List.rev kids) in
    match !stack with
    | [] ->
      if !completed = [] then first_end := st.pos;
      completed := node :: !completed
    | (plbl, pkids) :: rest -> stack := (plbl, node :: pkids) :: rest
  in
  let rec go () =
    skip_misc st;
    match peek st with
    | None ->
      if !stack <> [] then error st "unexpected end of input: unclosed element"
    | Some '<' ->
      advance st;
      (match peek st with
      | Some '/' ->
        advance st;
        let name = read_name st in
        skip_spaces st;
        (match peek st with
        | Some '>' -> advance st
        | _ -> error st "expected '>' after closing tag");
        (match !stack with
        | (lbl, kids) :: rest when lbl = name ->
          stack := rest;
          finish_element lbl kids
        | (lbl, _) :: _ -> error st "mismatched closing tag </%s>, open element <%s>" name lbl
        | [] -> error st "closing tag </%s> with no open element" name);
        go ()
      | Some _ ->
        let name = read_name st in
        skip_attributes st;
        (match peek st with
        | Some '/' ->
          advance st;
          (match peek st with
          | Some '>' ->
            advance st;
            finish_element name []
          | _ -> error st "expected '>' after '/'")
        | Some '>' ->
          advance st;
          stack := (name, []) :: !stack
        | _ -> error st "unterminated start tag <%s" name);
        go ()
      | None -> error st "dangling '<'")
    | Some _ -> assert false
  in
  go ();
  (List.rev !completed, !first_end)

(* a scan that finds no element ends at the end of the input *)
let parse_fragment s =
  let st = { input = s; pos = 0 } in
  match parse_elements st with
  | [], _ -> error st "no element found"
  | [ b ], _ -> Tree.of_builder b
  | bs, _ -> Tree.of_builder (Tree.Node ("#root", bs))

let parse s =
  let st = { input = s; pos = 0 } in
  match parse_elements st with
  | [ b ], _ -> Tree.of_builder b
  | [], _ -> error st "no element found"
  | _, first_end ->
    (* point at the second root: past whatever follows the first *)
    st.pos <- first_end;
    skip_misc st;
    error st "multiple root elements (use parse_fragment)"

let to_string t =
  let buf = Buffer.create (Tree.size t * 8) in
  let rec go v =
    let lbl = Tree.label t v in
    if Tree.is_leaf t v then begin
      Buffer.add_char buf '<';
      Buffer.add_string buf lbl;
      Buffer.add_string buf "/>"
    end
    else begin
      Buffer.add_char buf '<';
      Buffer.add_string buf lbl;
      Buffer.add_char buf '>';
      Tree.iter_children t v go;
      Buffer.add_string buf "</";
      Buffer.add_string buf lbl;
      Buffer.add_char buf '>'
    end
  in
  go 0;
  Buffer.contents buf

let pp fmt t =
  let rec go indent v =
    let lbl = Tree.label t v in
    if Tree.is_leaf t v then Format.fprintf fmt "%s<%s/>@," indent lbl
    else begin
      Format.fprintf fmt "%s<%s>@," indent lbl;
      Tree.iter_children t v (go (indent ^ "  "));
      Format.fprintf fmt "%s</%s>@," indent lbl
    end
  in
  Format.fprintf fmt "@[<v>";
  go "" 0;
  Format.fprintf fmt "@]"
