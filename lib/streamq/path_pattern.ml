type edge = Child | Descendant | Following

type step = { edge : edge; label : string option }

type t = step list

let of_string input =
  let error pos fmt = Treekit.Parse_error.raise_at pos fmt in
  let n = String.length input in
  let pos = ref 0 in
  let steps = ref [] in
  if n = 0 then error 0 "empty pattern";
  while !pos < n do
    let edge =
      if !pos + 1 < n && input.[!pos] = '/' && input.[!pos + 1] = '/' then begin
        pos := !pos + 2;
        Descendant
      end
      else if input.[!pos] = '/' then begin
        incr pos;
        Child
      end
      else if !pos = 0 then Descendant (* a bare leading name: anchor anywhere *)
      else error !pos "expected '/' or '//'"
    in
    let start = !pos in
    while
      !pos < n
      &&
      match input.[!pos] with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | '*' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then error !pos "expected a step name or '*'";
    let word = String.sub input start (!pos - start) in
    let label = if word = "*" then None else Some word in
    steps := { edge; label } :: !steps
  done;
  List.rev !steps

let to_string p =
  String.concat ""
    (List.map
       (fun { edge; label } ->
         (match edge with Child -> "/" | Descendant -> "//" | Following -> "/following::")
         ^ match label with Some l -> l | None -> "*")
       p)

let length = List.length

let to_xpath p =
  let module A = Xpath.Ast in
  let module Ax = Treekit.Axis in
  let step_of { edge; label } =
    let quals = match label with Some l -> [ A.Lab l ] | None -> [] in
    match edge with
    | Child -> A.Step { axis = Ax.Child; quals }
    | Descendant -> A.Step { axis = Ax.Descendant; quals }
    | Following -> A.Step { axis = Ax.Following; quals }
  in
  match p with
  | [] -> invalid_arg "Path_pattern.to_xpath: empty pattern"
  | first :: rest ->
    List.fold_left (fun acc s -> A.Seq (acc, step_of s)) (step_of first) rest

let of_xpath path =
  let module A = Xpath.Ast in
  let module Ax = Treekit.Axis in
  (* flatten Seq into a list of steps *)
  let rec flatten = function
    | A.Seq (a, b) -> flatten a @ flatten b
    | p -> [ p ]
  in
  let label_of quals =
    match quals with
    | [] -> Some None
    | [ A.Lab l ] -> Some (Some l)
    | _ -> None
  in
  let rec convert = function
    | [] -> Some []
    | A.Step { axis = Ax.Child; quals } :: rest -> (
      match label_of quals, convert rest with
      | Some label, Some tail -> Some ({ edge = Child; label } :: tail)
      | _ -> None)
    | A.Step { axis = Ax.Descendant; quals } :: rest -> (
      match label_of quals, convert rest with
      | Some label, Some tail -> Some ({ edge = Descendant; label } :: tail)
      | _ -> None)
    | A.Step { axis = Ax.Descendant_or_self; quals = [] }
      :: A.Step { axis = Ax.Child; quals }
      :: rest -> (
      (* the //-desugaring shape *)
      match label_of quals, convert rest with
      | Some label, Some tail -> Some ({ edge = Descendant; label } :: tail)
      | _ -> None)
    | _ -> None
  in
  match convert (flatten path) with Some ([] : t) -> None | other -> other

let random ?(seed = 3) ?rng ~length ~labels () =
  let rng = match rng with Some r -> r | None -> Random.State.make [| seed |] in
  List.init length (fun _ ->
      {
        edge = (if Random.State.bool rng then Child else Descendant);
        label =
          (if Random.State.int rng 4 = 0 then None
           else Some labels.(Random.State.int rng (Array.length labels)));
      })
