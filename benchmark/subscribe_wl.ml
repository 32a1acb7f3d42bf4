(* The standing-query workloads: registrations as query text, then a
   stream of documents as XML text through one [Subscribe.Index]
   session. *)

module Engine = Treequery.Engine
module Index = Subscribe.Index

type params = {
  registrations : int;  (** standing at the start *)
  twig_pct : int;  (** registration mix, out of 100; the rest are CQs *)
  spine_pct : int;
  churn : int;  (** register/unregister events before each document *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  closed_ops : int;  (** closed documents per round *)
  open_ops : int;  (** open documents per round *)
  open_rate : float;  (** open documents per second *)
}

(* XMark scale of every document: about 145 nodes, which keeps a
   document under two milliseconds, so that 15 rounds give the open
   segments 1560 samples at about a fifth of capacity. *)
let doc_scale = 4

(* Qualifier-heavy registrations, no churn: the twig matchers carry
   the match. *)
let twig =
  {
    registrations = 120; twig_pct = 65; spine_pct = 25; churn = 0; setups = 15; closed_ops = 160;
    open_ops = 104; open_rate = 130.0;
  }

(* Many unqualified registrations and steady churn: the trie, the
   general plans and the registry carry the work; twigs do nothing. *)
let churn =
  {
    registrations = 1000; twig_pct = 0; spine_pct = 90; churn = 10; setups = 15; closed_ops = 120;
    open_ops = 104; open_rate = 130.0;
  }

let quick p = { p with registrations = p.registrations / 10; setups = 2; closed_ops = 10; open_ops = 10 }

(* every [check_every]-th document's fired set is kept, and checked
   after the run against one-at-a-time evaluation of the registrations
   live at that document *)
let check_every = 16

type state = {
  index : Index.t;
  session : Index.session;
  mutable docs : int;
  mutable fired : int;
  mutable active_work : int;
  mutable failed : int;
  mutable checks : (int * int list) list;  (** document, fired ids *)
}

let register st spans ~id (q : Gen.query) =
  let query = Spans.with_ spans Spans.Treequery_parse ~id (fun () -> Serve_wl.parse q) in
  Spans.with_ spans Spans.Subscribe_register ~id (fun () -> ignore (Index.register st.index ~id query))

let unregister st spans ~id victim =
  Spans.with_ spans Spans.Subscribe_unregister ~id (fun () -> ignore (Index.unregister st.index ~id:victim))

let apply_churn st spans ~id events =
  Array.iter
    (function
      | Gen.Register (rid, q) -> register st spans ~id:rid q
      | Gen.Unregister victim -> unregister st spans ~id victim)
    events

(* One op: the churn due before document [i], then the document itself,
   parsed from its text and matched. *)
let process st spans ~docs ~churn i =
  Spans.with_ spans Spans.Op ~id:i @@ fun () ->
  match
    apply_churn st spans ~id:i churn.(i);
    let tree = Spans.with_ spans Spans.Treekit_parse ~id:i (fun () -> Treekit.Xml.parse docs.(i)) in
    Spans.with_ spans Spans.Subscribe_match ~id:i (fun () -> Index.match_tree st.session tree)
  with
  | fired ->
    st.docs <- st.docs + 1;
    st.fired <- st.fired + List.length fired;
    st.active_work <- st.active_work + Index.doc_active_work st.session;
    if i mod check_every = 0 then st.checks <- (i, fired) :: st.checks;
    true
  | exception _ ->
    st.failed <- st.failed + 1;
    false

(* From registration text in memory to ready: register every query,
   then match the first document, which builds the session. *)
let setup spans ~initial ~docs ~churn =
  let t0 = Loop.now () in
  let index = Index.create () in
  let st =
    {
      index; session = Index.session index; docs = 0; fired = 0; active_work = 0; failed = 0; checks = [];
    }
  in
  Array.iteri (fun id q -> register st spans ~id q) initial;
  ignore (process st spans ~docs ~churn 0);
  (st, Loop.now () -. t0)

(* The deferred reference check: for each recorded document, the fired
   set must equal one-at-a-time [Engine.eval_boolean] over the
   registrations live at that document, found by replaying the churn
   from the initial registrations; documents are matched in index
   order.  Returns the number of documents whose fired set differs. *)
let verify ~initial ~docs ~churn checks =
  let parsed = Hashtbl.create 1024 in
  let query (q : Gen.query) =
    match Hashtbl.find_opt parsed q.Gen.text with
    | Some e -> e
    | None ->
      let e = Serve_wl.parse q in
      Hashtbl.add parsed q.Gen.text e;
      e
  in
  let live = Hashtbl.create (2 * Array.length initial) in
  Array.iteri (fun id q -> Hashtbl.replace live id (query q)) initial;
  let upto = ref 0 in
  List.fold_left
    (fun bad (i, fired) ->
      while !upto < i do
        incr upto;
        Array.iter
          (function
            | Gen.Register (id, q) -> Hashtbl.replace live id (query q)
            | Gen.Unregister id -> Hashtbl.remove live id)
          churn.(!upto)
      done;
      let tree = Treekit.Xml.parse docs.(i) in
      let expected =
        Hashtbl.fold (fun id e acc -> if Engine.eval_boolean e tree then id :: acc else acc) live []
      in
      if List.sort compare expected = fired then bad else bad + 1)
    0 (List.rev checks)

let run p ~seed ~seconds ~trace ~trace_file =
  let lap, laps = Outcome.stopwatch () in
  let rounds = Loop.rounds_in seconds in
  (* the standing registrations come from the fixed population, and
     churn registers them again; the run's seed picks which, and when *)
  let initial =
    Gen.distinct (Gen.rng ~seed:Gen.population_seed ~salt:11) p.registrations
      (Gen.registration ~twig_pct:p.twig_pct ~spine_pct:p.spine_pct)
  in
  (* document 0 is matched by every set-up; then each round's closed
     documents, then its open ones *)
  let per_round = p.closed_ops + p.open_ops in
  let n_docs = 1 + (rounds * per_round) in
  let doc_rng = Gen.rng ~seed ~salt:12 in
  let docs = Array.init n_docs (fun _ -> Gen.xmark_text doc_rng ~scale:doc_scale) in
  let churn =
    Array.append [| [||] |]
      (if p.churn = 0 then Array.make (n_docs - 1) [||]
       else
         Gen.churn (Gen.rng ~seed ~salt:13) ~live:p.registrations ~docs:(n_docs - 1) ~per_doc:p.churn (fun rng ->
             Gen.pick rng initial))
  in
  let due =
    let rng = Gen.rng ~seed ~salt:14 in
    Array.init rounds (fun _ -> Gen.poisson rng ~rate:p.open_rate ~count:p.open_ops)
  in
  let digest = Gen.Digest_acc.create () in
  Array.iter (fun q -> Gen.Digest_acc.add digest q.Gen.text) initial;
  Array.iter (Gen.Digest_acc.add digest) docs;
  Array.iter
    (Array.iter (function
      | Gen.Register (id, q) -> Gen.Digest_acc.add digest (Printf.sprintf "+%d %s" id q.Gen.text)
      | Gen.Unregister id -> Gen.Digest_acc.add digest (Printf.sprintf "-%d" id)))
    churn;
  Array.iter (Gen.Digest_acc.add_floats digest) due;
  lap "inputs";
  let heap_base = Loop.heap_baseline () in
  let spans = Spans.create () in
  spans.Spans.on <- trace;
  let attempted = ref 0 and failed = ref 0 in
  let setups, st =
    Loop.repeat_setup ~times:p.setups (fun () ->
        let st, dt = setup spans ~initial ~docs ~churn in
        attempted := !attempted + st.docs + st.failed;
        failed := !failed + st.failed;
        (st, dt))
  in
  spans.Spans.on <- false;
  lap "set-up";
  let setup_docs = st.docs + st.failed and setup_failed = st.failed in
  let from = spans.Spans.len in
  let docs0 = st.docs and fired0 = st.fired and work0 = st.active_work in
  let counters = ref [] and closed_next = ref 0 in
  let step () =
    let k = !closed_next in
    incr closed_next;
    ignore (process st spans ~docs ~churn (1 + (k / p.closed_ops * per_round) + (k mod p.closed_ops)));
    1
  in
  let dispatch first _ =
    [| process st spans ~docs ~churn (1 + (first / p.open_ops * per_round) + p.closed_ops + (first mod p.open_ops)) |]
  in
  let around r f = if trace && Outcome.traced r then Outcome.traced_round spans counters f else f () in
  let m =
    Loop.run ~rounds ~closed_ops:p.closed_ops ~open_ops:p.open_ops
      ~due:(fun r i -> due.(r).(i))
      ~max_group:1 ~around ~step ~dispatch ()
  in
  lap "rounds";
  Option.iter (Spans.write_chrome spans) trace_file;
  let mismatched = verify ~initial ~docs ~churn st.checks in
  lap "checks";
  let attempted = !attempted + st.docs + st.failed - setup_docs in
  let failed = !failed + st.failed - setup_failed + mismatched in
  let info () =
    [
      ( "inputs",
        Printf.sprintf "digest=%s docs=%d doc_nodes=%d doc_bytes=%d registrations=%d rounds=%d"
          (Gen.Digest_acc.hex digest) n_docs
          (Treekit.Tree.size (Treekit.Xml.parse docs.(0)))
          (String.length docs.(0)) p.registrations rounds );
      ( "index",
        String.concat " " (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) (Index.class_counts st.index)) );
      ("checked", Printf.sprintf "%d documents, %d mismatched" (List.length st.checks) mismatched);
      ("setup", Printf.sprintf "median of %d" (Array.length setups));
    ]
    @ Loop.describe ~rate:p.open_rate m.Loop.rounds
    @ [ ("stages", laps ()) ]
  in
  if not trace then Outcome.untraced ~attempted ~failed ~info:(info ()) ~setups ~heap_base m
  else begin
    let traced_rounds, _ = Outcome.split m in
    let traced_ops =
      Array.fold_left (fun a r -> a + r.Loop.closed_ops + Array.length r.Loop.latency) 0 traced_rounds
    in
    let per_traced x = x /. float_of_int (max 1 traced_ops) in
    let per_doc x = x /. float_of_int (max 1 (st.docs - docs0)) in
    let cdelta name = float_of_int (Outcome.counter_delta !counters name) in
    let obs_spans = Obs.Report.span_count (Obs.Report.capture ()) in
    Obs.set_enabled false;
    let tot = Spans.totals ~from spans and all = Spans.totals spans in
    let mean_us (t : Spans.totals) = 1e6 *. t.Spans.total /. float_of_int (max 1 t.Spans.count) in
    (* isolated probes on the same inputs *)
    let parsed = Array.map Serve_wl.parse initial in
    let prepare_s =
      Array.map (fun q -> Outcome.time_per_call ~runs:1 ~min_s:0.0 (fun () -> ignore (Engine.prepare q))) parsed
    in
    let sample = Array.init (min 64 n_docs) (fun i -> Treekit.Xml.parse docs.(i)) in
    let class_of =
      let index = Index.create () in
      Array.mapi (fun id q -> Index.register index ~id q) parsed
    in
    (* match time per document on an index holding one class only *)
    let class_us c =
      let index = Index.create () in
      Array.iteri (fun id q -> if class_of.(id) = c then ignore (Index.register index ~id q)) parsed;
      let session = Index.session index in
      ignore (Index.match_tree session sample.(0));
      1e6
      *. Outcome.time_per_call ~runs:1 ~min_s:0.0 (fun () -> Array.iter (fun t -> ignore (Index.match_tree session t)) sample)
      /. float_of_int (Array.length sample)
    in
    let layers =
      [
        ("treekit.parse_us_per_doc", mean_us (tot Spans.Treekit_parse));
        ("treekit.nodes_visited_per_op", per_traced (cdelta "nodes_visited"));
        ("treequery.parse_us_per_op", 1e6 *. per_traced (tot Spans.Treequery_parse).Spans.self);
        ("treequery.prepare_us_per_miss", 1e6 *. Loop.mean prepare_s);
        ("cqtree.tuples_materialised_per_op", per_traced (cdelta "tuples_materialised"));
        ("subscribe.match_us_per_doc", mean_us (tot Spans.Subscribe_match));
        ("subscribe.class_spine_us_per_doc", class_us Index.Spine);
        ("subscribe.class_twig_us_per_doc", class_us Index.Twig);
        ("subscribe.class_general_us_per_doc", class_us Index.General);
        ("subscribe.register_us", mean_us (all Spans.Subscribe_register));
        ("subscribe.unregister_us", mean_us (all Spans.Subscribe_unregister));
        ("subscribe.trie_active_work_per_doc", per_doc (float_of_int (st.active_work - work0)));
        ("subscribe.fired_per_doc", per_doc (float_of_int (st.fired - fired0)));
        ("subscribe.entries", float_of_int (Index.entries st.index));
        ("subscribe.trie_states", float_of_int (Index.trie_states st.index));
      ]
      @ Outcome.common_layers ~obs_spans ~obs_ops:traced_ops m spans
    in
    lap "probes";
    { Outcome.attempted; failed; info = info (); e2e = []; raw = []; layers }
  end
