module Engine = Treequery.Engine
module Event = Treekit.Event
module P = Streamq.Path_pattern
module Twigs = Streamq.Twig_matcher
module Q = Cqtree.Query

type query_class = Spine | Twig | General | Auto

let class_name = function
  | Spine -> "spine"
  | Twig -> "twig"
  | General -> "general"
  | Auto -> "auto"

let c_docs = Obs.Counter.make "subscribe_documents"

let c_fired = Obs.Counter.make "subscribe_fired"

let c_fired_spine = Obs.Counter.make "subscribe_fired_spine"

let c_fired_twig = Obs.Counter.make "subscribe_fired_twig"

let c_fired_general = Obs.Counter.make "subscribe_fired_general"

let c_fired_auto = Obs.Counter.make "subscribe_fired_auto"

let c_active_work = Obs.Counter.make "subscribe_active_states"

let c_registered = Obs.Counter.make "subscribe_registrations"

let c_unregistered = Obs.Counter.make "subscribe_unregistrations"

(* [slot] is the entry's place in its class: its trie state (spine),
   its bank slot (twig) or its position in the class's table
   (automaton, general plan) *)
type body =
  | Spine_body
  | Twig_body
  | Auto_body of Automata.Automaton.t
  | General_body of Engine.prepared

type entry = {
  handle : int;
  canon : string;
  body : body;
  mutable slot : int;
  mutable ids : int list;  (* subscription fan-out, unordered *)
}

(* a placeholder for the cells of freed slots, so that they hold on to
   no dropped entry *)
let vacant = { handle = -1; canon = ""; body = Spine_body; slot = -1; ids = [] }

let put a i e =
  let a =
    if i < Array.length a then a
    else begin
      let b = Array.make (max 8 (2 * i)) vacant in
      Array.blit a 0 b 0 (Array.length a);
      b
    end
  in
  a.(i) <- e;
  a

(* one class's entries, packed for the per-document loop; removal moves
   the last entry into the leaver's place *)
type table = { mutable items : entry array; mutable len : int }

let table_add tb e =
  e.slot <- tb.len;
  tb.items <- put tb.items tb.len e;
  tb.len <- tb.len + 1

let table_remove tb e =
  let last = tb.items.(tb.len - 1) in
  tb.items.(e.slot) <- last;
  last.slot <- e.slot;
  tb.len <- tb.len - 1;
  tb.items.(tb.len) <- vacant

(* Every class's compiled patterns live here, once: the trie, the twig
   bank (with its slot-to-entry map) and the tables of automata and
   general plans.  [register] and [unregister] patch them in place;
   sessions hold only per-document working state. *)
type t = {
  trie : Trie.t;
  twigs : Twigs.bank;
  mutable twig_entries : entry array;  (* per twig-bank slot *)
  autos : table;
  generals : table;
  by_canon : (string, entry) Hashtbl.t;
  by_id : (int, entry) Hashtbl.t;
  by_handle : (int, entry) Hashtbl.t;
  mutable next_handle : int;
}

let create () =
  {
    trie = Trie.create ();
    twigs = Twigs.bank ~anchored:true ();
    twig_entries = [||];
    autos = { items = [||]; len = 0 };
    generals = { items = [||]; len = 0 };
    by_canon = Hashtbl.create 256;
    by_id = Hashtbl.create 256;
    by_handle = Hashtbl.create 256;
    next_handle = 0;
  }

let live t = Hashtbl.length t.by_id

let entries t = Hashtbl.length t.by_canon

let trie_states t = Trie.states t.trie

let class_of_body = function
  | Spine_body -> Spine
  | Twig_body -> Twig
  | General_body _ -> General
  | Auto_body _ -> Auto

let class_counts t =
  let counts = [| 0; 0; 0; 0 |] in
  let slot = function Spine -> 0 | Twig -> 1 | General -> 2 | Auto -> 3 in
  Hashtbl.iter
    (fun _ e -> counts.(slot (class_of_body e.body)) <- counts.(slot (class_of_body e.body)) + 1)
    t.by_canon;
  [ ("spine", counts.(0)); ("twig", counts.(1)); ("general", counts.(2)); ("auto", counts.(3)) ]

let slots t = [ ("twig", Twigs.live t.twigs); ("general", t.generals.len); ("auto", t.autos.len) ]

exception Not_chain

(* A forward-normalised CQ is a chain when its binary atoms form one
   directed path x0 → x1 → … → xk over child, descendant and following
   through every variable, and each variable carries at most one label
   test ([True] tests say nothing and are dropped).  The head is then on
   the path, and the query's Boolean value is whether some node matches
   the path's last position: the spine that takes a [Descendant] step
   from the document node to x0 (any element, the root included), then
   one step per atom. *)
let chain_of_cq q =
  let q = Q.normalize_forward q in
  let label = Hashtbl.create 8 and out = Hashtbl.create 8 and into = Hashtbl.create 8 in
  let edge axis x y =
    if Hashtbl.mem out x || Hashtbl.mem into y then raise Not_chain;
    Hashtbl.add out x (axis, y);
    Hashtbl.add into y ()
  in
  let atom = function
    | Q.U (Q.True, _) -> ()
    | Q.U (Q.Lab l, x) ->
      if Hashtbl.mem label x then raise Not_chain;
      Hashtbl.add label x l
    | Q.A (Treekit.Axis.Child, x, y) -> edge P.Child x y
    | Q.A (Treekit.Axis.Descendant, x, y) -> edge P.Descendant x y
    | Q.A (Treekit.Axis.Following, x, y) -> edge P.Following x y
    | Q.U _ | Q.A _ -> raise Not_chain
  in
  let vars = Q.vars q in
  match List.iter atom (List.sort_uniq compare q.Q.atoms) with
  | exception Not_chain -> None
  | () -> (
    match List.filter (fun x -> not (Hashtbl.mem into x)) vars with
    | [ x0 ] ->
      (* in-degrees are at most 1 and the source's is 0, so the walk
         from the source ends; it covers every variable iff no other
         variable sits on a cycle of its own *)
      let rec walk x acc =
        match Hashtbl.find_opt out x with
        | None -> List.rev acc
        | Some (edge, y) -> walk y ({ P.edge; label = Hashtbl.find_opt label y } :: acc)
      in
      let spine = walk x0 [ { P.edge = P.Descendant; label = Hashtbl.find_opt label x0 } ] in
      if List.length spine = List.length vars then Some spine else None
    | _ -> None)

(* The class ladder: a query whose whole meaning is a forward spine goes
   into the merged trie (per-document cost shared with every other
   spine), from the root element for XPath and from the document node
   for a chain CQ; a conjunctive forward path with qualifiers joins the
   twig bank, fed in the same pass (unless it is too large for the
   bank's bitmasks: one such pattern would make the whole bank refuse);
   anything else falls back to its compiled one-at-a-time plan,
   evaluated per document on the materialised tree.  Boolean semantics
   agree with [Engine.eval_boolean] in every class (the [standing-match]
   oracle). *)
let classify q =
  match q with
  | Engine.Xpath_query p -> (
    match P.of_xpath p with
    | Some pat when List.length pat <= 61 -> `Spine (Trie.Root, pat)
    | _ -> (
      match Streamq.Xpath_filter.twig_of p with
      | Some twig when Actree.Twigjoin.pattern_size twig <= Twigs.max_nodes -> `Twig twig
      | _ -> `General))
  | Engine.Cq_query cq -> (
    match chain_of_cq cq with Some pat -> `Spine (Trie.Document, pat) | None -> `General)
  | _ -> `General

let add_entry t ~canon ~slot body =
  let handle = t.next_handle in
  t.next_handle <- handle + 1;
  let e = { handle; canon; body; slot; ids = [] } in
  Hashtbl.replace t.by_canon canon e;
  Hashtbl.replace t.by_handle handle e;
  e

(* checked before the entry is looked up or created, so a rejected
   registration leaves the index untouched *)
let check_fresh t ~id =
  if Hashtbl.mem t.by_id id then
    invalid_arg (Printf.sprintf "Subscribe.Index.register: duplicate id %d" id)

let subscribe t ~id entry =
  entry.ids <- id :: entry.ids;
  Hashtbl.replace t.by_id id entry;
  Obs.Counter.incr c_registered;
  class_of_body entry.body

let register t ~id q =
  check_fresh t ~id;
  let canon = Engine.canonical q in
  let entry =
    match Hashtbl.find_opt t.by_canon canon with
    | Some e -> e
    | None -> (
      match classify q with
      | `Spine (start, pat) ->
        let e = add_entry t ~canon ~slot:(-1) Spine_body in
        e.slot <- Trie.add t.trie start pat ~handle:e.handle;
        e
      | `Twig twig ->
        let slot = Twigs.add t.twigs twig in
        let e = add_entry t ~canon ~slot Twig_body in
        t.twig_entries <- put t.twig_entries slot e;
        e
      | `General ->
        let e = add_entry t ~canon ~slot:(-1) (General_body (Engine.prepare q)) in
        table_add t.generals e;
        e)
  in
  subscribe t ~id entry

let register_automaton t ~id auto =
  check_fresh t ~id;
  let canon = "auto|" ^ auto.Automata.Automaton.name in
  let entry =
    match Hashtbl.find_opt t.by_canon canon with
    | Some e -> e
    | None ->
      let e = add_entry t ~canon ~slot:(-1) (Auto_body auto) in
      table_add t.autos e;
      e
  in
  subscribe t ~id entry

let unregister t ~id =
  match Hashtbl.find_opt t.by_id id with
  | None -> false
  | Some e ->
    Hashtbl.remove t.by_id id;
    e.ids <- List.filter (fun i -> i <> id) e.ids;
    Obs.Counter.incr c_unregistered;
    if e.ids = [] then begin
      Hashtbl.remove t.by_canon e.canon;
      Hashtbl.remove t.by_handle e.handle;
      match e.body with
      | Spine_body -> Trie.detach t.trie ~state:e.slot ~handle:e.handle
      | Twig_body ->
        Twigs.remove t.twigs e.slot;
        t.twig_entries.(e.slot) <- vacant
      | Auto_body _ -> table_remove t.autos e
      | General_body _ -> table_remove t.generals e
    end;
    true

(* ------------------------------------------------------------------ *)
(* Matching sessions *)

(* Per-document working state only: the trie pass, a pass over the twig
   bank and one automaton stepper per position of the index's automaton
   table.  The passes regrow at the start of a document when the trie
   or the bank has grown; a stepper is replaced when another automaton
   has moved into its position. *)
type session = {
  index : t;
  pass : Trie.pass;
  twigs : Twigs.t;
  mutable steppers : (Automata.Automaton.t * Automata.Automaton.stepper) array;
}

let session index =
  {
    index;
    pass = Trie.pass index.trie;
    twigs = Twigs.pass index.twigs;
    steppers = [||];
  }

let automaton e =
  match e.body with Auto_body a -> a | _ -> invalid_arg "Subscribe.Index: not an automaton"

let sync_steppers s =
  let autos = s.index.autos in
  let fresh k =
    let a = automaton autos.items.(k) in
    (a, Automata.Automaton.stepper a)
  in
  let old = s.steppers in
  if Array.length old <> autos.len then
    s.steppers <- Array.init autos.len (fun k -> if k < Array.length old then old.(k) else fresh k);
  Array.iteri
    (fun k (a, _) -> if a != automaton autos.items.(k) then s.steppers.(k) <- fresh k)
    s.steppers

let match_tree s tree =
  let idx = s.index in
  sync_steppers s;
  let steppers = s.steppers in
  Trie.begin_doc s.pass;
  Twigs.reset s.twigs;
  Array.iter (fun (_, st) -> Automata.Automaton.reset_stepper st) steppers;
  Event.iter tree (fun ev ->
      Trie.push s.pass ev;
      Twigs.push s.twigs ev;
      Array.iter (fun (_, st) -> Automata.Automaton.step st ev) steppers);
  let fired = ref [] in
  let fire counter (e : entry) =
    Obs.Counter.incr counter;
    fired := List.rev_append e.ids !fired
  in
  Trie.iter_fired s.pass (fun handle -> fire c_fired_spine (Hashtbl.find idx.by_handle handle));
  Twigs.iter_matched s.twigs (fun j -> fire c_fired_twig idx.twig_entries.(j));
  Array.iteri
    (fun k (_, st) ->
      match Automata.Automaton.accepted st with
      | Some true -> fire c_fired_auto idx.autos.items.(k)
      | Some false | None -> ())
    steppers;
  for k = 0 to idx.generals.len - 1 do
    let e = idx.generals.items.(k) in
    match e.body with
    | General_body prepared when prepared.Engine.exec_boolean tree -> fire c_fired_general e
    | _ -> ()
  done;
  Obs.Counter.incr c_docs;
  Obs.Counter.add c_active_work (Trie.doc_active_work s.pass);
  let out = List.sort_uniq compare !fired in
  Obs.Counter.add c_fired (List.length out);
  out

let doc_active_work s = Trie.doc_active_work s.pass
