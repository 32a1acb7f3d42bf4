module Nodeset = Treekit.Nodeset

type t = { arity : int; disjuncts : Query.t list }

let make disjuncts =
  match disjuncts with
  | [] -> invalid_arg "Positive.make: empty union"
  | first :: rest ->
    List.iter
      (fun q ->
        match Query.check q with
        | Ok () -> ()
        | Error m -> invalid_arg ("Positive.make: " ^ m))
      disjuncts;
    let arity = List.length first.Query.head in
    if List.exists (fun q -> List.length q.Query.head <> arity) rest then
      invalid_arg "Positive.make: disjuncts have different head arities";
    { arity; disjuncts }

let parse i s =
  try Query.of_string s
  with Treekit.Parse_error.Error { pos; msg } ->
    Treekit.Parse_error.raise_at pos "disjunct %d: %s" (i + 1) msg

let of_strings ss = make (List.mapi parse ss)

let boolean ?env u tree =
  List.exists (fun q -> Rewrite.boolean ?env q tree) u.disjuncts

let unary ?env u tree =
  if u.arity <> 1 then invalid_arg "Positive.unary: arity is not 1";
  let out = Nodeset.create (Treekit.Tree.size tree) in
  List.iter (fun q -> Nodeset.union_into out (Rewrite.unary ?env q tree)) u.disjuncts;
  out

let solutions ?env u tree =
  List.sort_uniq compare
    (List.concat_map (fun q -> Rewrite.solutions ?env q tree) u.disjuncts)

let boolean_naive ?env u tree =
  List.exists (fun q -> Naive.boolean ?env q tree) u.disjuncts

let solutions_naive ?env u tree =
  List.sort_uniq compare
    (List.concat_map (fun q -> Naive.solutions ?env q tree) u.disjuncts)

let pp fmt u =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i q ->
      Format.fprintf fmt "%s %a@," (if i = 0 then "   " else "or ") Query.pp q)
    u.disjuncts;
  Format.fprintf fmt "@]"
