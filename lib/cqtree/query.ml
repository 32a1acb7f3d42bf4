module Axis = Treekit.Axis

type var = string

type unary =
  | Lab of string
  | Root
  | Leaf
  | First_sibling
  | Last_sibling
  | Named of string
  | False
  | True

type atom = U of unary * var | A of Axis.t * var * var

type t = { head : var list; atoms : atom list }

type env = (string * Treekit.Nodeset.t) list

let atom_vars = function U (_, x) -> [ x ] | A (_, x, y) -> [ x; y ]

let vars q =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let visit x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.add seen x ();
      out := x :: !out
    end
  in
  List.iter visit q.head;
  List.iter (fun a -> List.iter visit (atom_vars a)) q.atoms;
  List.rev !out

let is_boolean q = q.head = []
let is_unary q = List.length q.head = 1

let atom_count q = List.length q.atoms

let check q =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let body_vars = List.concat_map atom_vars q.atoms in
  if body_vars = [] then err "query has no atoms"
  else
    let rec go = function
      | [] -> Ok ()
      | h :: rest ->
        if List.mem h body_vars then go rest
        else err "head variable %s does not occur in the body" h
    in
    go q.head

let rename f q =
  {
    head = List.map f q.head;
    atoms =
      List.map
        (function U (u, x) -> U (u, f x) | A (a, x, y) -> A (a, f x, f y))
        q.atoms;
  }

let normalize_forward q =
  (* first unify away Self atoms *)
  let subst = Hashtbl.create 4 in
  let rec resolve x =
    match Hashtbl.find_opt subst x with None -> x | Some y -> resolve y
  in
  List.iter
    (function
      | A (Axis.Self, x, y) ->
        let x = resolve x and y = resolve y in
        if x <> y then Hashtbl.replace subst y x
      | _ -> ())
    q.atoms;
  let q = rename resolve q in
  let atoms =
    List.filter_map
      (function
        | A (Axis.Self, _, _) -> None
        | A (a, x, y) when not (Axis.is_forward a) -> Some (A (Axis.inverse a, y, x))
        | a -> Some a)
      q.atoms
  in
  (* a variable that occurred only in Self atoms still ranges over
     every node (checked only when a Self atom went: evaluation
     normalises on every run) *)
  if List.compare_lengths atoms q.atoms = 0 then { q with atoms }
  else
    let kept = List.concat_map atom_vars atoms in
    let lost = List.filter (fun x -> not (List.mem x kept)) (vars q) in
    { q with atoms = atoms @ List.map (fun x -> U (True, x)) lost }

let signature q =
  let q = normalize_forward q in
  let seen = Hashtbl.create 4 in
  let out = ref [] in
  List.iter
    (function
      | A (a, _, _) ->
        if not (Hashtbl.mem seen a) then begin
          Hashtbl.add seen a ();
          out := a :: !out
        end
      | U _ -> ())
    q.atoms;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Concrete syntax *)

let of_string input =
  (* q(X, Y) :- atom, atom, ... .   — tokenisation is simple enough to do
     with a cursor; errors are positioned at the offending offset *)
  let fail_at = Treekit.Parse_error.raise_at in
  let n = String.length input in
  let pos = ref 0 in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let skip_ws () =
    while
      (match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | _ -> false)
    do
      incr pos
    done
  in
  let is_word = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '+' | '*' -> true
    | _ -> false
  in
  (* a name and the offset it starts at *)
  let word () =
    skip_ws ();
    let start = !pos in
    while (match peek () with Some c when is_word c -> true | _ -> false) do
      incr pos
    done;
    if !pos = start then fail_at start "expected a name";
    (start, String.sub input start (!pos - start))
  in
  let eat c what =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail_at !pos "expected %s" what
  in
  let string_lit () =
    skip_ws ();
    eat '"' "'\"'";
    let start = !pos in
    while (match peek () with Some '"' -> false | Some _ -> true | None -> false) do
      incr pos
    done;
    let s = String.sub input start (!pos - start) in
    eat '"' "closing '\"'";
    s
  in
  let is_var w = w <> "" && (match w.[0] with 'A' .. 'Z' | '_' -> true | _ -> false) in
  let var what =
    let at, w = word () in
    if not (is_var w) then fail_at at "%s" what;
    w
  in
  (* head *)
  ignore (word ());
  skip_ws ();
  let head =
    match peek () with
    | Some '(' ->
      incr pos;
      let rec go acc =
        let w = var "head arguments must be variables" in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          go (w :: acc)
        | Some ')' ->
          incr pos;
          List.rev (w :: acc)
        | _ -> fail_at !pos "expected ',' or ')' in head"
      in
      go []
    | _ -> []
  in
  eat ':' "':-'";
  eat '-' "':-'";
  let parse_atom () =
    let at, name = word () in
    eat '(' "'('" ;
    let first = var "atom arguments must start with a variable" in
    skip_ws ();
    match peek () with
    | Some ')' ->
      incr pos;
      let u =
        match String.lowercase_ascii name with
        | "root" -> Root
        | "leaf" -> Leaf
        | "firstsibling" -> First_sibling
        | "lastsibling" -> Last_sibling
        | "lab" -> fail_at at "lab needs a label argument: lab(X, \"a\")"
        | other -> (
          match Axis.of_name other with
          | Some _ -> fail_at at "%s is a binary axis and needs two arguments" other
          | None -> Named other)
      in
      U (u, first)
    | Some ',' ->
      incr pos;
      skip_ws ();
      let atom =
        match peek () with
        | Some '"' ->
          if String.lowercase_ascii name <> "lab" then
            fail_at at "only lab takes a string argument";
          U (Lab (string_lit ()), first)
        | _ ->
          let second = var "expected a variable" in
          (match Axis.of_name name with
          | Some a -> A (a, first, second)
          | None -> fail_at at "unknown axis %s" name)
      in
      eat ')' "')'";
      atom
    | _ -> fail_at !pos "expected ',' or ')'"
  in
  let rec atoms acc =
    let a = parse_atom () in
    skip_ws ();
    match peek () with
    | Some ',' ->
      incr pos;
      atoms (a :: acc)
    | Some '.' ->
      incr pos;
      List.rev (a :: acc)
    | None -> List.rev (a :: acc)
    | _ -> fail_at !pos "expected ',' or '.'"
  in
  let q = { head; atoms = atoms [] } in
  (* a well-formed text that is not a query: the head is at fault *)
  (match check q with Ok () -> () | Error m -> fail_at 0 "%s" m);
  q

let atom_to_string = function
  | U (Lab a, x) -> Printf.sprintf "lab(%s, \"%s\")" x a
  | U (Root, x) -> Printf.sprintf "root(%s)" x
  | U (Leaf, x) -> Printf.sprintf "leaf(%s)" x
  | U (First_sibling, x) -> Printf.sprintf "firstsibling(%s)" x
  | U (Last_sibling, x) -> Printf.sprintf "lastsibling(%s)" x
  | U (Named p, x) -> Printf.sprintf "%s(%s)" p x
  | U (False, x) -> Printf.sprintf "false(%s)" x
  | U (True, x) -> Printf.sprintf "dom(%s)" x
  | A (a, x, y) -> Printf.sprintf "%s(%s, %s)" (Axis.name a) x y

let to_string q =
  let head =
    match q.head with
    | [] -> "q"
    | hs -> Printf.sprintf "q(%s)" (String.concat ", " hs)
  in
  Printf.sprintf "%s :- %s." head (String.concat ", " (List.map atom_to_string q.atoms))

let pp fmt q = Format.pp_print_string fmt (to_string q)
