(* Counted claims: the serving and standing-query acceptance gates, stated
   over counted work so that `bench --check` decides them exactly on any
   host.  Each workload measures named sides (in the order they are
   recorded in bench/counters.json) and the exact checks its run must
   pass, and claims a bound on the ratio of two of its sides; [Baseline]
   records and replays them. *)

module Engine = Treequery.Engine
module PP = Streamq.Path_pattern
module Index = Subscribe.Index

type measured = {
  sides : (string * float) list;
  checks : (string * bool) list;
}

type bound = At_least of float | At_most of float

(* [num / den] stays on the right side of [bound] *)
type claim = { id : string; num : string; den : string; bound : bound }

type experiment = {
  name : string;
  run : unit -> measured;
  claims : claim list;
}

(* the counters one traced run of [f] bumps from zero, and its result *)
let traced f =
  Obs.reset ();
  let r = Obs.with_enabled true f in
  let counters = Obs.Counter.snapshot () in
  Obs.reset ();
  (counters, r)

let count counters key = Option.value ~default:0 (List.assoc_opt key counters)

(* ------------------------------------------------------------------ *)
(* Serving: 10k closed-loop requests over 100 shapes against one
   xmark-2048 document, served cold (one at a time: parse, plan and
   evaluate from scratch, what a naive server does) and warm (batch mode
   through a warm plan cache, in-flight groups sharing plan dedup and
   grouped label seed scans), the warm run once more with a fresh cost
   store and flight recorder attached.

   The workload is not shrunk: on smaller streams the sharing has less
   to dedup and the ratio is a different claim. *)

let requests = 10_000
let shape_count = 100

let serve () =
  let tree = Treekit.Generator.xmark ~seed:3 ~scale:2048 () in
  let rng = Random.State.make [| 7; 0xda7a |] in
  let shapes = Serve.Workload.shapes ~rng ~count:shape_count in
  let reqs =
    Serve.Workload.requests ~rng ~shapes:shape_count ~count:requests
      Serve.Workload.Closed_loop
  in
  let reparse (s : Serve.Workload.shape) =
    match s.query with
    | Engine.Cq_query _ -> Engine.parse_cq s.source
    | _ -> Engine.parse_xpath s.source
  in
  let cold, () =
    traced (fun () ->
        List.iter
          (fun (r : Serve.Workload.request) ->
            ignore (Engine.eval (reparse shapes.(r.shape)) tree))
          reqs)
  in
  let cache = Serve.Plan_cache.create ~capacity:128 () in
  Array.iter
    (fun (s : Serve.Workload.shape) -> ignore (Serve.Plan_cache.find cache s.query))
    shapes;
  (* a warm run's counters, stats and minor words per request *)
  let warm_run ?telemetry ?recorder () =
    let cfg =
      Serve.Server.config ~cache ~concurrency:500 ~share:true ?telemetry
        ?recorder ()
    in
    traced (fun () ->
        let w0 = Gc.minor_words () in
        let stats = Serve.Server.run cfg tree shapes reqs in
        (stats, (Gc.minor_words () -. w0) /. float_of_int requests))
  in
  let warm, (stats, words) = warm_run () in
  let store = Telemetry.Cost_store.create () in
  let recorder = Telemetry.Flight_recorder.create () in
  let _, (tel_stats, tel_words) = warm_run ~telemetry:store ~recorder () in
  let keys = List.length (Telemetry.Cost_store.summaries store) in
  let visited counters = float_of_int (count counters "nodes_visited") in
  {
    sides =
      [
        ("cold_nodes_visited", visited cold);
        ("warm_nodes_visited", visited warm);
        ("warm_words_per_request", words);
        ("telemetry_words_per_request", tel_words);
      ];
    checks =
      [
        ( "warm run hits the plan cache on every request",
          count warm "plan_cache_hit" = requests );
        ("warm run serves without errors", stats.Serve.Server.errors = 0);
        ( "telemetry run serves every request",
          tel_stats.Serve.Server.served = requests && keys > 0 );
      ];
  }

let serving =
  {
    name = "serve-cold-vs-warm/xmark2048-10k";
    run = serve;
    claims =
      [
        (* cold one-at-a-time serving visits >= 3x the nodes of warm batch *)
        { id = "cold-over-warm-work"; num = "cold_nodes_visited";
          den = "warm_nodes_visited"; bound = At_least 3.0 };
        (* telemetry adds at most 3% to the minor words per request *)
        { id = "telemetry-word-overhead"; num = "telemetry_words_per_request";
          den = "warm_words_per_request"; bound = At_most 1.03 };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Standing queries: N distinct path spines (the class the merged
   prefix-sharing trie covers) registered in one shared index and
   matched against ten XMark documents, beside the one-at-a-time twin
   that runs every registration's compiled Boolean plan.

   The index's per-document work witness is the one of trie.mli:
   document events (2 per node) + exactly-matched trie states + the
   fired set; the twin's is its node visits. *)

(* the XMark element vocabulary (Generator.xmark), so registered spines
   actually walk the benchmark documents *)
let vocab =
  [|
    "site"; "regions"; "africa"; "asia"; "europe"; "namerica"; "item";
    "location"; "quantity"; "name"; "description"; "parlist"; "mailbox";
    "mail"; "from"; "to"; "date"; "categories"; "category"; "people";
    "person"; "emailaddress"; "address"; "street"; "city"; "country";
    "profile"; "interest"; "education"; "watches"; "open_auctions";
    "open_auction"; "initial"; "reserve"; "bidder"; "time"; "personref";
    "increase"; "itemref"; "seller"; "annotation"; "author"; "happiness";
    "closed_auctions"; "closed_auction"; "buyer"; "price";
  |]

let distinct_spines ~rng n =
  let seen = Hashtbl.create (2 * n) in
  let acc = ref [] in
  while Hashtbl.length seen < n do
    let length = 1 + Random.State.int rng 4 in
    let p = PP.random ~rng ~length ~labels:vocab () in
    let key = PP.to_string p in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      acc := p :: !acc
    end
  done;
  Array.of_list (List.rev !acc)

let populations = [ 1_000; 10_000; 100_000 ]

(* per-document index witness and fired id sets over [docs] *)
let index_arm pats docs =
  let idx = Index.create () in
  Array.iteri
    (fun i p -> ignore (Index.register idx ~id:i (Engine.Xpath_query (PP.to_xpath p))))
    pats;
  let sess = Index.session idx in
  (* the passes' array growth happens once per churn, not per
     document: keep it out of the counted pass *)
  ignore (Index.match_tree sess docs.(0));
  let fired = Array.make (Array.length docs) [] in
  let counters, () =
    traced (fun () ->
        Array.iteri (fun i t -> fired.(i) <- Index.match_tree sess t) docs)
  in
  let nodes = Array.fold_left (fun a t -> a + Treekit.Tree.size t) 0 docs in
  let work =
    (2 * nodes)
    + count counters "subscribe_active_states"
    + count counters "subscribe_fired"
  in
  (float_of_int work /. float_of_int (Array.length docs), fired)

(* per-document node visits and fired id sets of the twin over [docs] *)
let twin_arm pats docs =
  let plans =
    Array.map (fun p -> Engine.prepare (Engine.Xpath_query (PP.to_xpath p))) pats
  in
  let fired = Array.make (Array.length docs) [] in
  let counters, () =
    traced (fun () ->
        Array.iteri
          (fun d t ->
            let acc = ref [] in
            Array.iteri
              (fun i (pl : Engine.prepared) ->
                if pl.exec_boolean t then acc := i :: !acc)
              plans;
            fired.(d) <- List.rev !acc)
          docs)
  in
  ( float_of_int (count counters "nodes_visited")
    /. float_of_int (Array.length docs),
    fired )

let match_documents () =
  let rng = Random.State.make [| 0x5049 |] in
  let all = distinct_spines ~rng (List.fold_left max 0 populations) in
  let docs =
    Array.init 10 (fun i ->
        let t = Treekit.Generator.xmark ~seed:(7_000 + i) ~scale:10 () in
        Treekit.Tree.seal t;
        t)
  in
  let per_n =
    List.map
      (fun n ->
        let pats = Array.sub all 0 n in
        (* 100k plans on every document is minutes of work for the same
           per-document figure: the twin runs two documents there *)
        let twin_docs = if n >= 100_000 then Array.sub docs 0 2 else docs in
        let witness, ix_fired = index_arm pats docs in
        let visited, tw_fired = twin_arm pats twin_docs in
        let agree =
          Array.for_all Fun.id
            (Array.mapi (fun d l -> l = ix_fired.(d)) tw_fired)
        in
        let k = Printf.sprintf "%dk" (n / 1000) in
        ( [
            ("index_witness_per_doc_" ^ k, witness);
            ("twin_nodes_visited_per_doc_" ^ k, visited);
          ],
          (Printf.sprintf "index and twin fire identical sets at N = %d" n, agree) ))
      populations
  in
  { sides = List.concat_map fst per_n; checks = List.map snd per_n }

let subscribe =
  {
    name = "subscribe-index-vs-twin/spines-1k-100k";
    run = match_documents;
    claims =
      [
        (* the twin does >= 5x the index's work at 10k registrations *)
        { id = "twin-over-index-work-10k"; num = "twin_nodes_visited_per_doc_10k";
          den = "index_witness_per_doc_10k"; bound = At_least 5.0 };
        (* the index's work grows <= 25x while registrations grow 100x
           (the twin's grows ~100x) *)
        { id = "index-work-growth-1k-100k"; num = "index_witness_per_doc_100k";
          den = "index_witness_per_doc_1k"; bound = At_most 25.0 };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Standing queries, churned: a fixed live set of spines and chain CQs,
   then N distinct register/unregister pairs of other spines and chains
   (documents matched between them, so sessions see the churn).  The
   index frees what is unregistered, so after any N its trie holds the
   states, and a document costs it the work, of a fresh index that only
   ever held the live set. *)

let chain_axes = [| "child"; "descendant"; "following" |]

(* a chain CQ of 2–3 variables over the vocabulary, as text *)
let chain_text rng =
  let lab () = vocab.(Random.State.int rng (Array.length vocab)) in
  let k = 1 + Random.State.int rng 2 in
  let atoms =
    List.init (k + 1) (fun i ->
        Printf.sprintf "lab(X%d, \"%s\")" i (lab ())
        :: (if i = 0 then []
            else
              [ Printf.sprintf "%s(X%d, X%d)" chain_axes.(Random.State.int rng 3) (i - 1) i ]))
  in
  "q :- " ^ String.concat ", " (List.concat atoms) ^ "."

(* [n] distinct registrations, one in three a chain *)
let distinct_standing ~rng n =
  let seen = Hashtbl.create (2 * n) in
  let acc = ref [] in
  while Hashtbl.length seen < n do
    let q =
      if Random.State.int rng 3 = 0 then Engine.parse_cq (chain_text rng)
      else Engine.Xpath_query (PP.to_xpath (PP.random ~rng ~length:(1 + Random.State.int rng 4) ~labels:vocab ()))
    in
    let key = Engine.canonical q in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      acc := q :: !acc
    end
  done;
  Array.of_list (List.rev !acc)

let live_count = 300

let churn_checkpoints = [ 1_000; 10_000 ]

(* trie states, work per document and fired sets of an index over [docs] *)
let index_state idx sess docs =
  let work = ref 0 in
  let fired =
    Array.map
      (fun t ->
        let f = Index.match_tree sess t in
        work := !work + Index.doc_active_work sess;
        f)
      docs
  in
  (Index.trie_states idx, float_of_int !work /. float_of_int (Array.length docs), fired)

let forgets () =
  let rng = Random.State.make [| 0x464f |] in
  let all = distinct_standing ~rng (live_count + List.fold_left max 0 churn_checkpoints) in
  let docs = Array.init 4 (fun i -> Treekit.Generator.xmark ~seed:(7_100 + i) ~scale:10 ()) in
  let fresh = Index.create () in
  for id = 0 to live_count - 1 do
    ignore (Index.register fresh ~id all.(id))
  done;
  let states, work, fired = index_state fresh (Index.session fresh) docs in
  let idx = Index.create () in
  let sess = Index.session idx in
  for id = 0 to live_count - 1 do
    ignore (Index.register idx ~id all.(id))
  done;
  let pairs = ref 0 in
  let per_n =
    List.map
      (fun n ->
        while !pairs < n do
          let id = live_count + !pairs in
          ignore (Index.register idx ~id all.(id));
          ignore (Index.unregister idx ~id);
          incr pairs;
          if !pairs mod 100 = 0 then ignore (Index.match_tree sess docs.(!pairs / 100 mod 4))
        done;
        let s, w, f = index_state idx sess docs in
        let k = Printf.sprintf "%dk" (n / 1000) in
        ( [ ("churned_" ^ k ^ "_trie_states", float_of_int s); ("churned_" ^ k ^ "_work_per_doc", w) ],
          [
            (Printf.sprintf "trie states after %d pairs = a fresh index's" n, s = states);
            (Printf.sprintf "work per document after %d pairs = a fresh index's" n, w = work);
            (Printf.sprintf "fired sets after %d pairs = a fresh index's" n, f = fired);
          ] ))
      churn_checkpoints
  in
  {
    sides =
      [ ("fresh_trie_states", float_of_int states); ("fresh_work_per_doc", work) ]
      @ List.concat_map fst per_n;
    checks = List.concat_map snd per_n;
  }

let forgetting =
  {
    name = "subscribe-index-forgets/churn-1k-10k";
    run = forgets;
    claims =
      [
        (* after 10k distinct register/unregister pairs a document costs
           no more trie work than on an index that never saw them *)
        { id = "index-forgets"; num = "churned_10k_work_per_doc"; den = "fresh_work_per_doc";
          bound = At_most 1.0 };
      ];
  }
