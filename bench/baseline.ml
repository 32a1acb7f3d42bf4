(* The exact counter gate: one fixed-seed suite, recorded in
   bench/counters.json by [run_baseline] and replayed by [check].

   The file is keyed by experiment.  Each entry records the counts of
   one traced run and holds no wall time, so every recorded value is a
   machine-independent expectation.  Two kinds of entry:
   - core-suite runs record their Obs counters; the check fails when a
     gating counter exceeds its recorded value;
   - counted claims (claims.ml) record their measured sides plus a bound
     on the ratio of two of them; the check recomputes both sides and
     fails when the ratio crosses the recorded bound, or when one of the
     run's exact checks fails.
   The check also fails when the file and the suite disagree: an
   experiment or claim missing from the file, an entry or claim no
   experiment produces, a claim whose side is not recorded, or a
   recorded claim whose sides or bound differ from the one claims.ml
   states. *)

open Claims
module Generator = Treekit.Generator
module Json = Obs.Json

(* a core-suite experiment: the counters of one traced run of [f] *)
let core name f =
  let run () =
    let counters, () = traced f in
    { sides = List.map (fun (k, v) -> (k, float_of_int v)) counters; checks = [] }
  in
  { name; run; claims = [] }

let xpath_on tree query () = ignore (Xpath.Eval.query tree (Xpath.Parser.parse query))

let suite () =
  let xmark8 = Generator.xmark ~seed:3 ~scale:8 () in
  let xmark_big = Generator.xmark ~seed:3 ~scale:2048 () in
  let xmark64 = Generator.xmark ~seed:3 ~scale:64 () in
  let t4k = Generator.random ~seed:4017 ~n:4_000 ~labels:Generator.labels_abc () in
  let t2k = Generator.random ~seed:2011 ~n:2_000 ~labels:Generator.labels_abc () in
  let twig_q =
    Cqtree.Query.of_string
      {| q(X, Y) :- lab(X, "item"), descendant(X, Y), lab(Y, "date"). |}
  in
  let datalog_p = Mdatalog.Examples.has_ancestor_labeled "b" in
  let pathstack_specs =
    [ (Some "item", Actree.Twigjoin.Descendant_edge);
      (Some "mail", Actree.Twigjoin.Descendant_edge) ]
  in
  [
    (* the acceptance query: a selective //a[b]-style descendant step *)
    core "xpath-selective/xmark8" (xpath_on xmark8 "//mail[date]");
    core "xpath-selective/xmark2048" (xpath_on xmark_big "//mail[date]");
    core "xpath-dense/random4k"
      (xpath_on t4k "//a[b and not(descendant::c)]/following-sibling::*");
    core "yannakakis-twig/xmark64" (fun () ->
        ignore (Cqtree.Yannakakis.solutions twig_q xmark64));
    core "structural-join/descendant-view-2k"
      (let xasr = Relkit.Structural_join.store t2k in
       fun () -> ignore (Relkit.Structural_join.descendant_view xasr));
    core "twig-pathstack/xmark64" (fun () ->
        ignore (Actree.Twigjoin.path_stack xmark64 pathstack_specs));
    core "datalog-ancestor/random4k" (fun () ->
        ignore (Mdatalog.Eval.run datalog_p t4k));
    (* the serving layer end to end: 2k closed-loop requests over 100
       shapes, warm-from-scratch cache — plan_cache_miss is exactly the
       number of distinct canonical forms, so canonicalization regressions
       (hash splits) show up as a gated counter increase *)
    core "serve-batch/xmark64-2k" (fun () ->
        let rng = Random.State.make [| 11; 0xda7a |] in
        let shapes = Serve.Workload.shapes ~rng ~count:100 in
        let reqs =
          Serve.Workload.requests ~rng ~shapes:100 ~count:2_000
            Serve.Workload.Closed_loop
        in
        let cache = Serve.Plan_cache.create ~capacity:128 () in
        let cfg =
          Serve.Server.config ~cache ~concurrency:250 ~share:true
            ~stream_prefilter:true ()
        in
        ignore (Serve.Server.run cfg xmark64 shapes reqs));
    serving;
    forgetting;
    subscribe;
  ]

(* only the deterministic work-witnessing counters gate; the others are
   recorded for information *)
let gating = [ "nodes_visited"; "tuples_materialised"; "plan_cache_miss" ]

(* ------------------------------------------------------------------ *)
(* The counters file. *)

type recorded = { counters : (string * float) list; bounds : claim list }

let claim_json c =
  let bound =
    match c.bound with
    | At_least b -> ("at_least", Json.Num b)
    | At_most b -> ("at_most", Json.Num b)
  in
  Json.Obj
    [ ("id", Json.Str c.id); ("num", Json.Str c.num); ("den", Json.Str c.den); bound ]

let entry_json r =
  Json.Obj
    (("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.counters))
    :: (if r.bounds = [] then [] else [ ("claims", Json.Arr (List.map claim_json r.bounds)) ]))

(* one experiment per line, so a diff of the file names what moved *)
let write file entries =
  let line (name, r) =
    Printf.sprintf "  %s: %s" (Json.to_string (Json.Str name)) (Json.to_string (entry_json r))
  in
  Json.write_raw file
    ("{\"experiments\": {\n" ^ String.concat ",\n" (List.map line entries) ^ "\n}}\n")

let claim_of_json name j =
  let field k = Json.member k j in
  match (field "id", field "num", field "den", field "at_least", field "at_most") with
  | Some (Json.Str id), Some (Json.Str num), Some (Json.Str den), Some (Json.Num b), None ->
    { id; num; den; bound = At_least b }
  | Some (Json.Str id), Some (Json.Str num), Some (Json.Str den), None, Some (Json.Num b) ->
    { id; num; den; bound = At_most b }
  | _ -> failwith (Printf.sprintf "%s: malformed claim %s" name (Json.to_string j))

let read file =
  let ic = open_in_bin file in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.member "experiments" (Json.of_string contents) with
  | Some (Json.Obj entries) ->
    List.map
      (fun (name, j) ->
        let counters =
          match Json.member "counters" j with
          | Some (Json.Obj kvs) ->
            List.filter_map (function k, Json.Num v -> Some (k, v) | _ -> None) kvs
          | _ -> []
        in
        let bounds =
          match Json.member "claims" j with
          | Some (Json.Arr cs) -> List.map (claim_of_json name) cs
          | _ -> []
        in
        (name, { counters; bounds }))
      entries
  | _ -> failwith (file ^ ": missing \"experiments\" object")

(* what the file and the suite disagree on, before anything runs *)
let coverage suite recorded =
  let names = List.map (fun e -> e.name) suite in
  let ids cs = List.map (fun c -> c.id) cs in
  let missing_from what have = List.filter (fun x -> not (List.mem x have)) what in
  List.map (Printf.sprintf "%s: not recorded") (missing_from names (List.map fst recorded))
  @ List.map
      (Printf.sprintf "%s: recorded, but no suite experiment produces it")
      (missing_from (List.map fst recorded) names)
  @ List.concat_map
      (fun e ->
        match List.assoc_opt e.name recorded with
        | None -> []
        | Some r ->
          List.map
            (Printf.sprintf "%s: claim %s not recorded" e.name)
            (missing_from (ids e.claims) (ids r.bounds))
          @ List.map
              (Printf.sprintf "%s: claim %s recorded, but no run measures it" e.name)
              (missing_from (ids r.bounds) (ids e.claims))
          @ List.concat_map
              (fun c ->
                List.map
                  (Printf.sprintf "%s: claim %s: side %s not recorded" e.name c.id)
                  (missing_from [ c.num; c.den ] (List.map fst r.counters)))
              r.bounds
          (* compared as written, so the file's number precision decides *)
          @ List.filter_map
              (fun rc ->
                let written c = Json.to_string (claim_json c) in
                match List.find_opt (fun c -> c.id = rc.id) e.claims with
                | Some c when written c <> written rc ->
                  Some
                    (Printf.sprintf "%s: claim %s recorded as %s, but claims.ml states %s"
                       e.name rc.id (written rc) (written c))
                | _ -> None)
              r.bounds)
      suite

(* ------------------------------------------------------------------ *)
(* Verification: print one line per gated value, return the failures. *)

let show v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.2f" v

let verify e (m : measured) r =
  let failures = ref 0 in
  let line ok fmt =
    if not ok then incr failures;
    Printf.printf ("%-40s %s " ^^ fmt ^^ "\n") e.name (if ok then "ok" else "FAILED")
  in
  let value kvs k = Option.value ~default:0.0 (List.assoc_opt k kvs) in
  List.iter
    (fun k ->
      let now = value m.sides k and before = value r.counters k in
      if now > 0.0 || before > 0.0 then
        line (now <= before) "%s: %s (expected <= %s)" k (show now) (show before))
    gating;
  List.iter
    (fun c ->
      match (List.assoc_opt c.num m.sides, List.assoc_opt c.den m.sides) with
      | Some n, Some d ->
        let ratio = n /. d in
        let ok, op, b =
          match c.bound with
          | At_least b -> (ratio >= b, ">=", b)
          | At_most b -> (ratio <= b, "<=", b)
        in
        line ok "claim %s: %s / %s = %s / %s = %.3f (%s %s)" c.id c.num c.den (show n)
          (show d) ratio op (show b)
      | _ -> line false "claim %s: a side of %s / %s was not measured" c.id c.num c.den)
    r.bounds;
  List.iter (fun (what, ok) -> line ok "check: %s" what) m.checks;
  !failures

let finish ~what failures =
  if failures > 0 then begin
    Printf.printf "%s FAILED (%d failures)\n" what failures;
    exit 1
  end
  else Printf.printf "%s ok\n" what

(* run the suite once, write its counts and the claims' bounds to [file],
   and verify the run against what it wrote *)
let run_baseline file =
  Bench_util.header "Counter gate: recording (fixed seeds)";
  let results =
    List.map
      (fun e ->
        let m = e.run () in
        (e, m, { counters = m.sides; bounds = e.claims }))
      (suite ())
  in
  write file (List.map (fun (e, _, r) -> (e.name, r)) results);
  Printf.printf "counters written to %s\n" file;
  finish ~what:"baseline"
    (List.fold_left (fun acc (e, m, r) -> acc + verify e m r) 0 results)

let check file =
  Bench_util.header ("Counter gate: " ^ file);
  let suite = suite () in
  let recorded, problems =
    match read file with
    | recorded -> (recorded, coverage suite recorded)
    | exception (Failure msg | Sys_error msg) -> ([], [ msg ])
    | exception Json.Parse_failure { pos; msg } ->
      ([], [ Printf.sprintf "%s: JSON syntax at %d: %s" file pos msg ])
  in
  if problems <> [] then begin
    List.iter print_endline problems;
    finish ~what:"counter check" (List.length problems)
  end;
  finish ~what:"counter check"
    (List.fold_left
       (fun acc e -> acc + verify e (e.run ()) (List.assoc e.name recorded))
       0 suite)
