module Engine = Treequery.Engine
module Tree = Treekit.Tree
module Nodeset = Treekit.Nodeset

let c_requests = Obs.Counter.make "serve_batch_requests"
let c_shared = Obs.Counter.make "serve_batch_shared"
let c_label_scans = Obs.Counter.make "serve_label_scans"
let c_pruned = Obs.Counter.make "serve_stream_pruned"

type result = {
  answers : Treekit.Nodeset.t array;
  distinct : int;
  stream_pruned : int;
}

(* ------------------------------------------------------------------ *)
(* labels mentioned by a query, for grouping the per-label seed scans *)

let rec labels_of_path acc = function
  | Xpath.Ast.Step { quals; _ } -> List.fold_left labels_of_qual acc quals
  | Xpath.Ast.Seq (a, b) | Xpath.Ast.Union (a, b) ->
    labels_of_path (labels_of_path acc a) b

and labels_of_qual acc = function
  | Xpath.Ast.Exists p -> labels_of_path acc p
  | Xpath.Ast.Lab l -> l :: acc
  | Xpath.Ast.And (a, b) | Xpath.Ast.Or (a, b) ->
    labels_of_qual (labels_of_qual acc a) b
  | Xpath.Ast.Not q -> labels_of_qual acc q

let labels_of_cq (q : Cqtree.Query.t) acc =
  List.fold_left
    (fun acc -> function
      | Cqtree.Query.U (Cqtree.Query.Lab l, _) -> l :: acc
      | _ -> acc)
    acc q.atoms

let labels_of_query = function
  | Engine.Xpath_query p -> labels_of_path [] p
  | Engine.Cq_query q -> labels_of_cq q []
  | Engine.Positive_query u ->
    List.fold_left (fun acc q -> labels_of_cq q acc) [] u.Cqtree.Positive.disjuncts
  | Engine.Datalog_query p ->
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc -> function
            | Mdatalog.Ast.U (Mdatalog.Ast.Lab l, _) -> l :: acc
            | _ -> acc)
          acc r.Mdatalog.Ast.body)
      [] p.Mdatalog.Ast.rules
  | Engine.Axis_datalog_query _ -> []

let prewarm_labels tree (reps : Engine.prepared array) =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (p : Engine.prepared) ->
      List.iter
        (fun l ->
          if not (Hashtbl.mem seen l) then begin
            Hashtbl.add seen l ();
            ignore (Tree.label_set tree l);
            Obs.Counter.incr c_label_scans
          end)
        (labels_of_query p.Engine.source))
    reps

(* ------------------------------------------------------------------ *)

let streamable (p : Engine.prepared) =
  match p.Engine.source with
  | Engine.Xpath_query path when Streamq.Xpath_filter.supported path -> Some path
  | _ -> None

(* one event-stream pass deciding every streamable query in the batch:
   each streamable rep registers in a per-batch standing-query index
   under its slot number (a rep the index classes [General] would be
   evaluated, not streamed, so it leaves again); returns [true] at rep
   index i iff that query certainly has an empty answer *)
let stream_prune tree (reps : Engine.prepared array) =
  let empty = Array.make (Array.length reps) false in
  let index = Subscribe.Index.create () in
  let subscribed = ref [] in
  Array.iteri
    (fun i p ->
      match streamable p with
      | Some path -> (
        match Subscribe.Index.register index ~id:i (Engine.Xpath_query path) with
        | Subscribe.Index.General -> ignore (Subscribe.Index.unregister index ~id:i)
        | _ -> subscribed := i :: !subscribed)
      | None -> ())
    reps;
  (* a lone streamable query gains nothing from an extra document pass *)
  if List.length !subscribed >= 2 then begin
    let fired = Subscribe.Index.match_tree (Subscribe.Index.session index) tree in
    List.iter
      (fun i ->
        if not (List.mem i fired) then begin
          empty.(i) <- true;
          Obs.Counter.incr c_pruned
        end)
      !subscribed
  end;
  empty

(* ------------------------------------------------------------------ *)

let run_prepared ?pool ?(stream_prefilter = false) ?on_profile tree
    (prepared : Engine.prepared array) =
  Obs.Span.with_ "serve:batch" @@ fun () ->
  let n = Array.length prepared in
  Obs.Counter.add c_requests n;
  (* dedup by canonical form, keeping first-appearance order *)
  let slot_of_canon = Hashtbl.create 16 in
  let rev_reps = ref [] in
  let ndistinct = ref 0 in
  let slot =
    Array.map
      (fun (p : Engine.prepared) ->
        match Hashtbl.find_opt slot_of_canon p.Engine.canon with
        | Some s ->
          Obs.Counter.incr c_shared;
          s
        | None ->
          let s = !ndistinct in
          incr ndistinct;
          Hashtbl.add slot_of_canon p.Engine.canon s;
          rev_reps := p :: !rev_reps;
          s)
      prepared
  in
  let reps = Array.of_list (List.rev !rev_reps) in
  Obs.Span.with_ "serve:seed-scans" (fun () -> prewarm_labels tree reps);
  let pruned_empty =
    if stream_prefilter then
      Obs.Span.with_ "serve:stream-prefilter" (fun () -> stream_prune tree reps)
    else Array.make (Array.length reps) false
  in
  let stream_pruned = Array.fold_left (fun a b -> if b then a + 1 else a) 0 pruned_empty in
  let rep_answers =
    Obs.Span.with_ "serve:execute" @@ fun () ->
    (* in share mode the unit of work is the distinct plan, so the scope
       is per representative: the shared evaluation is attributed once,
       and the per-rep profile counters sum to at most the global
       snapshot (aliased requests ride along for free) *)
    Pool.mapi_sharded ?pool
      (fun i (p : Engine.prepared) ->
        let answer, profile =
          Obs.Scope.collect
            ~attrs:
              [
                ("fingerprint", Obs.Str p.Engine.fp);
                ("strategy", Obs.Str (Engine.strategy_name p.Engine.strategy));
                ("aliased", Obs.Int (n - Array.length reps));
              ]
            (Printf.sprintf "rep-%d" i)
            (fun () ->
              if pruned_empty.(i) then Nodeset.create (Tree.size tree)
              else p.Engine.exec tree)
        in
        Obs.Scope.note profile;
        (answer, profile))
      reps
    |> Array.mapi (fun i (answer, profile) ->
           Option.iter (fun f -> f reps.(i) profile) on_profile;
           answer)
  in
  {
    answers = Array.map (fun s -> rep_answers.(s)) slot;
    distinct = !ndistinct;
    stream_pruned;
  }

let run ?stream_prefilter ?cache tree queries =
  let prepared =
    Obs.Span.with_ "serve:plan" @@ fun () ->
    Array.map
      (fun q ->
        match cache with
        | Some c -> snd (Plan_cache.find c q)
        | None -> Engine.prepare q)
      queries
  in
  run_prepared ?stream_prefilter tree prepared
