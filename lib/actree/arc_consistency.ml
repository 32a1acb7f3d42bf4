module Tree = Treekit.Tree
module Axis = Treekit.Axis
module Nodeset = Treekit.Nodeset
open Cqtree.Query

(* one bump per directed revision of a binary constraint in the
   propagation loop: at most 2·(n + 1) per atom *)
let c_revisions = Obs.Counter.make "arc_revisions"

let c_domain = Obs.Counter.make "domain_nodes_retained"

let initial_domain tree env u d =
  let n = Tree.size tree in
  (match u with
  | Lab a -> Nodeset.inter_into d (Tree.label_set tree a)
  | Root ->
    let s = Nodeset.create n in
    Nodeset.add s (Tree.root tree);
    Nodeset.inter_into d s
  | Leaf | First_sibling | Last_sibling ->
    let keep v =
      match u with
      | Leaf -> Tree.is_leaf tree v
      | First_sibling -> Tree.is_first_sibling tree v
      | Last_sibling -> Tree.is_last_sibling tree v
      | _ -> assert false
    in
    let s = Nodeset.create n in
    for v = 0 to n - 1 do
      if keep v then Nodeset.add s v
    done;
    Nodeset.inter_into d s
  | Named p -> (
    match List.assoc_opt p env with
    | Some s -> Nodeset.inter_into d s
    | None -> invalid_arg ("Arc_consistency: unbound named predicate " ^ p))
  | False -> Nodeset.clear d
  | True -> ());
  d

let start_domains ?(env = []) q tree =
  let n = Tree.size tree in
  let domains = Hashtbl.create 8 in
  List.iter (fun x -> Hashtbl.replace domains x (Nodeset.universe n)) (vars q);
  List.iter
    (function
      | U (u, x) -> ignore (initial_domain tree env u (Hashtbl.find domains x))
      | A _ -> ())
    q.atoms;
  domains

let result_of q domains =
  let pv = List.map (fun x -> (x, Hashtbl.find domains x)) (vars q) in
  if List.exists (fun (_, s) -> Nodeset.is_empty s) pv then None else Some pv

(* AC-3 over variables: every variable is visited once, and again each
   time its domain shrinks (at most |A| times), revising the other end
   of each incident atom from it *)
let direct ?env q tree =
  (match check q with Ok () -> () | Error m -> invalid_arg ("Arc_consistency: " ^ m));
  let domains = start_domains ?env q tree in
  let queue = Queue.create () in
  let push x = if not (Queue.fold (fun seen y -> seen || y = x) false queue) then Queue.add x queue in
  List.iter push (vars q);
  let revise axis ~from y =
    Obs.Counter.incr c_revisions;
    let dy = Hashtbl.find domains y in
    let before = Nodeset.cardinal dy in
    Nodeset.inter_into dy (Axis.image tree axis (Hashtbl.find domains from));
    if Nodeset.cardinal dy <> before then push y
  in
  Obs.Span.with_ "arc-consistency:propagate" (fun () ->
      while not (Queue.is_empty queue) do
        let x = Queue.pop queue in
        List.iter
          (function
            | A (a, u, v) ->
              if u = x then revise a ~from:x v;
              if v = x then revise (Axis.inverse a) ~from:x u
            | U _ -> ())
          q.atoms
      done);
  List.iter
    (fun x -> Obs.Counter.add c_domain (Nodeset.cardinal (Hashtbl.find domains x)))
    (vars q);
  result_of q domains

(* ------------------------------------------------------------------ *)
(* Proposition 6.2 verbatim: Horn-SAT over propositions Θ̄(x, v)
   ("v is NOT in Θ(x)"). *)

let build_hornsat ?(env = []) q tree =
  (match check q with Ok () -> () | Error m -> invalid_arg ("Arc_consistency: " ^ m));
  let n = Tree.size tree in
  let vs = Array.of_list (vars q) in
  let index = Hashtbl.create 8 in
  Array.iteri (fun i x -> Hashtbl.add index x i) vs;
  let notin x v = (Hashtbl.find index x * n) + v in
  let f = Hornsat.create ~nvars:(Array.length vs * n) in
  (* unary atoms: Θ̄(x,v) ← .  whenever ¬P(v) *)
  let initial = start_domains ~env q tree in
  List.iter
    (fun x ->
      let d = Hashtbl.find initial x in
      for v = 0 to n - 1 do
        if not (Nodeset.mem d v) then ignore (Hornsat.add_rule f ~head:(notin x v) ~body:[])
      done)
    (vars q);
  (* binary atoms: for R(x,y):
       Θ̄(x,v) ← ⋀ { Θ̄(y,w) | R(v,w) }   for every v
       Θ̄(y,w) ← ⋀ { Θ̄(x,v) | R(v,w) }   for every w *)
  List.iter
    (function
      | U _ -> ()
      | A (a, x, y) ->
        for v = 0 to n - 1 do
          let body = Axis.fold tree a v (fun w acc -> notin y w :: acc) [] in
          ignore (Hornsat.add_rule f ~head:(notin x v) ~body)
        done;
        let inv = Axis.inverse a in
        for w = 0 to n - 1 do
          let body = Axis.fold tree inv w (fun v acc -> notin x v :: acc) [] in
          ignore (Hornsat.add_rule f ~head:(notin y w) ~body)
        done)
    q.atoms;
  (f, notin)

let via_hornsat ?env q tree =
  let f, notin = build_hornsat ?env q tree in
  let model = Hornsat.solve f in
  let n = Tree.size tree in
  let pv =
    List.map
      (fun x ->
        let s = Nodeset.create n in
        for v = 0 to n - 1 do
          if not model.(notin x v) then Nodeset.add s v
        done;
        (x, s))
      (vars q)
  in
  if List.exists (fun (_, s) -> Nodeset.is_empty s) pv then None else Some pv

let hornsat_program_size ?env q tree =
  let f, _ = build_hornsat ?env q tree in
  Hornsat.size_of_formula f
