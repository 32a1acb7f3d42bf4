module Engine = Treequery.Engine
module Index = Subscribe.Index
module Tree = Treekit.Tree

let salt_hash s =
  String.fold_left (fun h c -> ((h * 131) + Char.code c) land 0x3FFFFFFF) 7 s

let shapes_salt = salt_hash "ingest-shapes"

let doc_salt = salt_hash "ingest-document"

let doc_rng ~seed i = Random.State.make [| seed; i; doc_salt |]

type config = {
  seed : int;
  registrations : int;  (** churn-stream event count *)
  docs : int;
  churn : float;
  scale : int;  (** XMark scale of each generated document *)
  pool : Pool.t option;  (** [None] = sequential, chunk size 1 *)
  one_at_a_time : bool;  (** the differential twin: no shared index *)
  on_chunk : (int -> int -> unit) option;
      (** (docs so far, fired so far) after each merged chunk *)
}

type summary = {
  events : int;
  registered : int;
  unregistered : int;  (** unregistrations that hit a live ID *)
  live : int;
  entries : int;
  trie_states : int;
  class_counts : (string * int) list;
  docs_matched : int;
  fired_total : int;
  fired_per_doc : int array;
  active_work : int;
  elapsed : float;
}

let c_ingest_docs = Obs.Counter.make "ingest_documents"

(* The ingest loop: apply the seeded churn stream, stream generated
   documents through the index (or through one-at-a-time evaluation of
   every live registration — the twin the CI smoke compares against),
   chunked by pool size for parallel per-document matching.

   Churn interleaving: with [churn = 0] the whole stream is applied
   before the first document (a pure registration phase); with
   [churn > 0] event slices are applied at fixed epoch boundaries (a
   function of the document count alone, NOT of pool size) so
   subscriptions come and go mid-stream while fired sets stay a pure
   function of (seed, registrations, docs, churn) — identical for every
   [--domains] count and between the indexed run and the one-at-a-time
   twin.  Within an epoch, documents are matched in pool-sized parallel
   chunks against the same index state. *)
let run cfg =
  let t0 = Obs.now () in
  let events =
    Array.of_list
      (Workload.registrations_split ~seed:cfg.seed ~shapes:cfg.registrations
         ~count:cfg.registrations ~churn:cfg.churn)
  in
  let n_register =
    Array.fold_left
      (fun acc -> function Workload.Register _ -> acc + 1 | _ -> acc)
      0 events
  in
  let shapes =
    Workload.shapes
      ~rng:(Random.State.make [| cfg.seed; shapes_salt |])
      ~count:n_register
  in
  let unregistered = ref 0 in
  (* the two modes behind one pair of closures *)
  let index = Index.create () in
  let twin : (int, Engine.prepared) Hashtbl.t = Hashtbl.create 1024 in
  let twin_plans : Engine.prepared option array = Array.make (max 1 n_register) None in
  let twin_plan shape =
    match twin_plans.(shape) with
    | Some p -> p
    | None ->
      let p = Engine.prepare shapes.(shape).Workload.query in
      twin_plans.(shape) <- Some p;
      p
  in
  let apply ev =
    match ev with
    | Workload.Register { id; shape } ->
      if cfg.one_at_a_time then Hashtbl.replace twin id (twin_plan shape)
      else ignore (Index.register index ~id shapes.(shape).Workload.query)
    | Workload.Unregister { id } ->
      let hit =
        if cfg.one_at_a_time then (
          let was = Hashtbl.mem twin id in
          Hashtbl.remove twin id;
          was)
        else Index.unregister index ~id
      in
      if hit then incr unregistered
  in
  let nsess = match cfg.pool with None -> 1 | Some p -> max 1 (Pool.size p) in
  let sessions =
    if cfg.one_at_a_time then [||] else Array.init nsess (fun _ -> Index.session index)
  in
  let match_doc slot tree =
    Obs.Counter.incr c_ingest_docs;
    if cfg.one_at_a_time then begin
      let fired = ref 0 in
      Hashtbl.iter
        (fun _ p -> if p.Engine.exec_boolean tree then incr fired)
        twin;
      (!fired, 0)
    end
    else begin
      let s = sessions.(slot) in
      let fired = Index.match_tree s tree in
      (List.length fired, Index.doc_active_work s)
    end
  in
  let e_total = Array.length events in
  let applied = ref 0 in
  let apply_through upto =
    while !applied < upto do
      apply events.(!applied);
      incr applied
    done
  in
  if cfg.churn = 0.0 then apply_through e_total;
  let fired_per_doc = Array.make (max 1 cfg.docs) 0 in
  let active_work = ref 0 in
  let fired_so_far = ref 0 in
  (* churn epochs partition the document stream independently of pool
     size: epoch [e] covers docs [e·docs/E, (e+1)·docs/E) *)
  let epochs = min cfg.docs 16 in
  for e = 0 to epochs - 1 do
    let lo = e * cfg.docs / epochs and ehi = (e + 1) * cfg.docs / epochs in
    if cfg.churn > 0.0 then apply_through (ehi * e_total / cfg.docs);
    let c = ref lo in
    while !c < ehi do
      let hi = min ehi (!c + nsess) in
      let chunk =
        Array.init (hi - !c) (fun k ->
            let i = !c + k in
            let tree =
              Treekit.Generator.xmark ~rng:(doc_rng ~seed:cfg.seed i) ~scale:cfg.scale ()
            in
            Tree.seal tree;
            tree)
      in
      (* slot [k] of the chunk matches through session [k] *)
      let results = Pool.mapi_sharded ?pool:cfg.pool match_doc chunk in
      Array.iteri
        (fun k (fired, work) ->
          fired_per_doc.(!c + k) <- fired;
          fired_so_far := !fired_so_far + fired;
          active_work := !active_work + work)
        results;
      c := hi;
      (match cfg.on_chunk with
      | Some f -> f hi !fired_so_far
      | None -> ())
    done
  done;
  apply_through e_total;
  let live = if cfg.one_at_a_time then Hashtbl.length twin else Index.live index in
  {
    events = e_total;
    registered = n_register;
    unregistered = !unregistered;
    live;
    entries = (if cfg.one_at_a_time then live else Index.entries index);
    trie_states = (if cfg.one_at_a_time then 0 else Index.trie_states index);
    class_counts = (if cfg.one_at_a_time then [] else Index.class_counts index);
    docs_matched = cfg.docs;
    fired_total = Array.fold_left ( + ) 0 (if cfg.docs = 0 then [||] else fired_per_doc);
    fired_per_doc = (if cfg.docs = 0 then [||] else fired_per_doc);
    active_work = !active_work;
    elapsed = Obs.now () -. t0;
  }

let summary_json s =
  Obs.Json.Obj
    [
      ("events", Obs.Json.Num (float_of_int s.events));
      ("registered", Obs.Json.Num (float_of_int s.registered));
      ("unregistered", Obs.Json.Num (float_of_int s.unregistered));
      ("live", Obs.Json.Num (float_of_int s.live));
      ("entries", Obs.Json.Num (float_of_int s.entries));
      ("trie_states", Obs.Json.Num (float_of_int s.trie_states));
      ( "classes",
        Obs.Json.Obj
          (List.map
             (fun (c, n) -> (c, Obs.Json.Num (float_of_int n)))
             s.class_counts) );
      ("docs", Obs.Json.Num (float_of_int s.docs_matched));
      ("fired_total", Obs.Json.Num (float_of_int s.fired_total));
      ( "fired_per_doc",
        Obs.Json.Arr
          (Array.to_list
             (Array.map (fun n -> Obs.Json.Num (float_of_int n)) s.fired_per_doc))
      );
      ("active_work", Obs.Json.Num (float_of_int s.active_work));
      ("elapsed_s", Obs.Json.Num s.elapsed);
    ]
