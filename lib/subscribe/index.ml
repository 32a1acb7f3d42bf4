module Engine = Treequery.Engine
module Event = Treekit.Event
module P = Streamq.Path_pattern

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

type body =
  | Spine_body of { state : int }
  | Twig_body of { twig : Actree.Twigjoin.node }
  | Auto_body of { auto : Automata.Automaton.t }
  | General_body of { prepared : Engine.prepared }

type entry = {
  handle : int;
  canon : string;
  body : body;
  mutable ids : int list;  (* subscription fan-out, unordered *)
}

type t = {
  trie : Trie.t;
  by_canon : (string, entry) Hashtbl.t;
  by_id : (int, entry) Hashtbl.t;
  by_handle : (int, entry) Hashtbl.t;
  mutable next_handle : int;
  mutable version : int;  (* bumped when the entry set changes *)
}

let create () =
  {
    trie = Trie.create ();
    by_canon = Hashtbl.create 256;
    by_id = Hashtbl.create 256;
    by_handle = Hashtbl.create 256;
    next_handle = 0;
    version = 0;
  }

let live t = Hashtbl.length t.by_id

let entries t = Hashtbl.length t.by_canon

let trie_states t = Trie.states t.trie

let class_of_body = function
  | Spine_body _ -> Spine
  | Twig_body _ -> Twig
  | General_body _ -> General
  | Auto_body _ -> Auto

let class_counts t =
  let counts = [| 0; 0; 0; 0 |] in
  let slot = function Spine -> 0 | Twig -> 1 | General -> 2 | Auto -> 3 in
  Hashtbl.iter
    (fun _ e -> counts.(slot (class_of_body e.body)) <- counts.(slot (class_of_body e.body)) + 1)
    t.by_canon;
  [
    ("spine", counts.(0)); ("twig", counts.(1)); ("general", counts.(2));
    ("auto", counts.(3));
  ]

(* The class ladder: a query whose whole meaning is a forward spine goes
   into the merged trie (per-document cost shared with every other
   spine); a conjunctive forward path with qualifiers joins the session's
   streaming twig bank, fed in the same pass (unless it is too large for
   the bank's bitmasks: one such pattern would make the whole bank
   refuse); anything else falls back to its compiled one-at-a-time plan,
   evaluated per document on the materialised tree.  Boolean semantics agree with
   [Engine.eval_boolean] in every class (the [standing-match] oracle). *)
let classify q =
  match q with
  | Engine.Xpath_query p -> (
    match P.of_xpath p with
    | Some pat when List.length pat <= 61 -> `Spine pat
    | _ -> (
      match Streamq.Xpath_filter.twig_of p with
      | Some twig when Actree.Twigjoin.pattern_size twig <= Streamq.Twig_matcher.max_nodes ->
        `Twig twig
      | _ -> `General))
  | _ -> `General

let fresh_handle t =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  h

let add_entry t ~canon body =
  let handle = fresh_handle t in
  let e = { handle; canon; body; ids = [] } in
  Hashtbl.replace t.by_canon canon e;
  Hashtbl.replace t.by_handle handle e;
  (match body with
  | Spine_body { state } -> Trie.attach t.trie ~state ~handle
  | Twig_body _ | General_body _ | Auto_body _ -> ());
  t.version <- t.version + 1;
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
    | None ->
      let body =
        match classify q with
        | `Spine pat -> Spine_body { state = Trie.add t.trie pat }
        | `Twig twig -> Twig_body { twig }
        | `General -> General_body { prepared = Engine.prepare q }
      in
      add_entry t ~canon body
  in
  subscribe t ~id entry

let register_automaton t ~id auto =
  check_fresh t ~id;
  let canon = "auto|" ^ auto.Automata.Automaton.name in
  let entry =
    match Hashtbl.find_opt t.by_canon canon with
    | Some e -> e
    | None -> add_entry t ~canon (Auto_body { auto })
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
      (match e.body with
      | Spine_body { state } -> Trie.detach t.trie ~state ~handle:e.handle
      | Twig_body _ | General_body _ | Auto_body _ -> ());
      t.version <- t.version + 1
    end;
    true

(* ------------------------------------------------------------------ *)
(* Matching sessions *)

type session = {
  index : t;
  pass : Trie.pass;
  mutable sversion : int;
  mutable twig_entries : entry array;  (* entry j is pattern j of [twigs] *)
  mutable twigs : Streamq.Twig_matcher.t;
  mutable autos : (entry * Automata.Automaton.stepper) array;
  mutable generals : entry array;
}

let session index =
  {
    index;
    pass = Trie.pass index.trie;
    sversion = -1;
    twig_entries = [||];
    twigs = Streamq.Twig_matcher.create [||];
    autos = [||];
    generals = [||];
  }

let refresh s =
  if s.sversion <> s.index.version then begin
    let twigs = ref [] and autos = ref [] and generals = ref [] in
    Hashtbl.iter
      (fun _ e ->
        match e.body with
        | Spine_body _ -> ()
        | Twig_body { twig } -> twigs := (e, twig) :: !twigs
        | Auto_body { auto } -> autos := (e, Automata.Automaton.stepper auto) :: !autos
        | General_body _ -> generals := e :: !generals)
      s.index.by_canon;
    let twigs = Array.of_list !twigs in
    s.twig_entries <- Array.map fst twigs;
    s.twigs <- Streamq.Twig_matcher.create ~anchored:true (Array.map snd twigs);
    s.autos <- Array.of_list !autos;
    s.generals <- Array.of_list !generals;
    s.sversion <- s.index.version
  end

let match_tree s tree =
  refresh s;
  Trie.begin_doc s.pass;
  Streamq.Twig_matcher.reset s.twigs;
  Array.iter (fun (_, st) -> Automata.Automaton.reset_stepper st) s.autos;
  Event.iter tree (fun ev ->
      Trie.push s.pass ev;
      Streamq.Twig_matcher.push s.twigs ev;
      Array.iter (fun (_, st) -> Automata.Automaton.step st ev) s.autos);
  let fired = ref [] in
  let fire counter (e : entry) =
    Obs.Counter.incr counter;
    fired := List.rev_append e.ids !fired
  in
  List.iter
    (fun handle ->
      match Hashtbl.find_opt s.index.by_handle handle with
      | Some e -> fire c_fired_spine e
      | None -> ())
    (Trie.fired s.pass);
  Array.iteri
    (fun j e -> if Streamq.Twig_matcher.matched s.twigs j then fire c_fired_twig e)
    s.twig_entries;
  Array.iter
    (fun (e, st) ->
      match Automata.Automaton.accepted st with
      | Some true -> fire c_fired_auto e
      | Some false | None -> ())
    s.autos;
  Array.iter
    (fun (e : entry) ->
      if e.body |> function
         | General_body { prepared } -> prepared.Engine.exec_boolean tree
         | _ -> false
      then fire c_fired_general e)
    s.generals;
  Obs.Counter.incr c_docs;
  Obs.Counter.add c_active_work (Trie.doc_active_work s.pass);
  let out = List.sort_uniq compare !fired in
  Obs.Counter.add c_fired (List.length out);
  out

let doc_active_work s = Trie.doc_active_work s.pass

let doc_peak_depth s = Trie.doc_peak_depth s.pass
