module Engine = Treequery.Engine
module Event = Treekit.Event
module P = Streamq.Path_pattern
module Twigs = Streamq.Twig_matcher
module Chains = Streamq.Chain_matcher

type query_class = Spine | Twig | Chain | General | Auto

let class_name = function
  | Spine -> "spine"
  | Twig -> "twig"
  | Chain -> "chain"
  | General -> "general"
  | Auto -> "auto"

let c_docs = Obs.Counter.make "subscribe_documents"

let c_fired = Obs.Counter.make "subscribe_fired"

let c_fired_spine = Obs.Counter.make "subscribe_fired_spine"

let c_fired_twig = Obs.Counter.make "subscribe_fired_twig"

let c_fired_chain = Obs.Counter.make "subscribe_fired_chain"

let c_fired_general = Obs.Counter.make "subscribe_fired_general"

let c_fired_auto = Obs.Counter.make "subscribe_fired_auto"

let c_active_work = Obs.Counter.make "subscribe_active_states"

let c_registered = Obs.Counter.make "subscribe_registrations"

let c_unregistered = Obs.Counter.make "subscribe_unregistrations"

(* [slot] is the entry's place in its class: its trie state (spine),
   its bank slot (twig, chain) or its position in the class's table
   (automaton, general plan) *)
type body =
  | Spine_body
  | Twig_body
  | Chain_body
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
   and chain banks (with their slot-to-entry maps) and the tables of
   automata and general plans.  [register] and [unregister] patch them
   in place; sessions hold only per-document working state. *)
type t = {
  trie : Trie.t;
  twigs : Twigs.bank;
  chains : Chains.bank;
  mutable twig_entries : entry array;  (* per twig-bank slot *)
  mutable chain_entries : entry array;  (* per chain-bank slot *)
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
    chains = Chains.bank ();
    twig_entries = [||];
    chain_entries = [||];
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
  | Chain_body -> Chain
  | General_body _ -> General
  | Auto_body _ -> Auto

let class_counts t =
  let counts = [| 0; 0; 0; 0; 0 |] in
  let slot = function Spine -> 0 | Twig -> 1 | Chain -> 2 | General -> 3 | Auto -> 4 in
  Hashtbl.iter
    (fun _ e -> counts.(slot (class_of_body e.body)) <- counts.(slot (class_of_body e.body)) + 1)
    t.by_canon;
  [
    ("spine", counts.(0)); ("twig", counts.(1)); ("chain", counts.(2)); ("general", counts.(3));
    ("auto", counts.(4));
  ]

let slots t =
  [
    ("twig", Twigs.live t.twigs); ("chain", Chains.live t.chains); ("general", t.generals.len);
    ("auto", t.autos.len);
  ]

(* The class ladder: a query whose whole meaning is a forward spine goes
   into the merged trie (per-document cost shared with every other
   spine); a conjunctive forward path with qualifiers joins the twig
   bank, fed in the same pass (unless it is too large for the bank's
   bitmasks: one such pattern would make the whole bank refuse); a CQ
   whose atoms form one forward chain joins the chain bank, fed in the
   same pass too; anything else falls back to its compiled one-at-a-time
   plan, evaluated per document on the materialised tree.  Boolean
   semantics agree with [Engine.eval_boolean] in every class (the
   [standing-match] oracle). *)
let classify q =
  match q with
  | Engine.Xpath_query p -> (
    match P.of_xpath p with
    | Some pat when List.length pat <= 61 -> `Spine pat
    | _ -> (
      match Streamq.Xpath_filter.twig_of p with
      | Some twig when Actree.Twigjoin.pattern_size twig <= Twigs.max_nodes -> `Twig twig
      | _ -> `General))
  | Engine.Cq_query cq -> ( match Chains.of_cq cq with Some c -> `Chain c | None -> `General)
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
      | `Spine pat ->
        let state = Trie.add t.trie pat in
        let e = add_entry t ~canon ~slot:state Spine_body in
        Trie.attach t.trie ~state ~handle:e.handle;
        e
      | `Twig twig ->
        let slot = Twigs.add t.twigs twig in
        let e = add_entry t ~canon ~slot Twig_body in
        t.twig_entries <- put t.twig_entries slot e;
        e
      | `Chain c ->
        let slot = Chains.add t.chains c in
        let e = add_entry t ~canon ~slot Chain_body in
        t.chain_entries <- put t.chain_entries slot e;
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
      | Chain_body ->
        Chains.remove t.chains e.slot;
        t.chain_entries.(e.slot) <- vacant
      | Auto_body _ -> table_remove t.autos e
      | General_body _ -> table_remove t.generals e
    end;
    true

(* ------------------------------------------------------------------ *)
(* Matching sessions *)

(* Per-document working state only: the trie pass, a pass over each
   bank and one automaton stepper per position of the index's automaton
   table.  The passes regrow at [reset] when their bank has grown; a
   stepper is replaced when another automaton has moved into its
   position. *)
type session = {
  index : t;
  pass : Trie.pass;
  twigs : Twigs.t;
  chains : Chains.t;
  mutable steppers : (Automata.Automaton.t * Automata.Automaton.stepper) array;
}

let session index =
  {
    index;
    pass = Trie.pass index.trie;
    twigs = Twigs.pass index.twigs;
    chains = Chains.pass index.chains;
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
  Chains.reset s.chains;
  Array.iter (fun (_, st) -> Automata.Automaton.reset_stepper st) steppers;
  Event.iter tree (fun ev ->
      Trie.push s.pass ev;
      Twigs.push s.twigs ev;
      Chains.push s.chains ev;
      Array.iter (fun (_, st) -> Automata.Automaton.step st ev) steppers);
  let fired = ref [] in
  let fire counter (e : entry) =
    Obs.Counter.incr counter;
    fired := List.rev_append e.ids !fired
  in
  List.iter
    (fun handle ->
      match Hashtbl.find_opt idx.by_handle handle with
      | Some e -> fire c_fired_spine e
      | None -> ())
    (Trie.fired s.pass);
  Twigs.iter_matched s.twigs (fun j -> fire c_fired_twig idx.twig_entries.(j));
  Chains.iter_matched s.chains (fun j -> fire c_fired_chain idx.chain_entries.(j));
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

let doc_peak_depth s = Trie.doc_peak_depth s.pass
