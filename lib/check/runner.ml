let c_cases = Obs.Counter.make "check_cases"
let c_runs = Obs.Counter.make "check_oracle_runs"
let c_skips = Obs.Counter.make "check_oracle_skips"
let c_discrepancies = Obs.Counter.make "check_discrepancies"
let c_shrink_steps = Obs.Counter.make "check_shrink_steps"

type config = {
  seed : int;
  cases : int;
  from : int;
  max_nodes : int;
  oracles : Oracles.t list;
  shrink_budget : int;
  max_failures : int;
}

let default =
  {
    seed = 42;
    cases = 200;
    from = 0;
    max_nodes = 40;
    oracles = Oracles.all;
    shrink_budget = 4000;
    max_failures = 10;
  }

type discrepancy = {
  oracle_name : string;
  theorem : string;
  case_index : int;
  seed : int;
  message : string;
  original_message : string;
  original_size : int;
  shrunk : Case.t;
  shrink_steps : int;
}

type stats = {
  run_config : config;
  per_oracle : (string * int * int * int) list;
  discrepancies : discrepancy list;
}

(* an exception in any engine is a failure of the oracle, not of the
   harness: it gets reported and shrunk like a set disagreement *)
let run_case (o : Oracles.t) c =
  match o.run c with
  | v -> v
  | exception e -> Oracles.Fail ("exception: " ^ Printexc.to_string e)

let generate (cfg : config) (o : Oracles.t) ~case =
  let rng = Gen.rng_for ~seed:cfg.seed ~case ~salt:o.name in
  let gcfg =
    { Gen.default with max_nodes = min cfg.max_nodes o.cap_nodes }
  in
  let tree = Gen.tree gcfg rng in
  let query = o.gen gcfg rng in
  { Case.tree; query }

let shrink (cfg : config) (o : Oracles.t) c =
  let still_fails c' =
    match run_case o c' with Oracles.Fail _ -> true | _ -> false
  in
  Shrink.minimize ~budget:cfg.shrink_budget ~still_fails c

let run cfg =
  Obs.Span.with_ "check" @@ fun () ->
  let tallies =
    List.map (fun (o : Oracles.t) -> (o.Oracles.name, ref 0, ref 0, ref 0))
      cfg.oracles
  in
  let discrepancies = ref [] in
  let failures = ref 0 in
  (try
     for k = cfg.from to cfg.from + cfg.cases - 1 do
       Obs.Counter.incr c_cases;
       List.iter2
         (fun (o : Oracles.t) (_, passes, skips, fails) ->
           Obs.Counter.incr c_runs;
           let c = generate cfg o ~case:k in
           match run_case o c with
           | Oracles.Pass -> incr passes
           | Oracles.Skip _ ->
             Obs.Counter.incr c_skips;
             incr skips
           | Oracles.Fail original_message ->
             Obs.Counter.incr c_discrepancies;
             incr fails;
             incr failures;
             let shrunk, shrink_steps = shrink cfg o c in
             Obs.Counter.add c_shrink_steps shrink_steps;
             (* the report prints the shrunk case, so its numbers come
                from a run on that case *)
             let message =
               match run_case o shrunk with Oracles.Fail m -> m | _ -> original_message
             in
             discrepancies :=
               {
                 oracle_name = o.Oracles.name;
                 theorem = o.Oracles.theorem;
                 case_index = k;
                 seed = cfg.seed;
                 message;
                 original_message;
                 original_size = Case.size c;
                 shrunk;
                 shrink_steps;
               }
               :: !discrepancies;
             if !failures >= cfg.max_failures then raise Exit)
         cfg.oracles tallies
     done
   with Exit -> ());
  {
    run_config = cfg;
    per_oracle =
      List.map (fun (n, p, s, f) -> (n, !p, !s, !f)) tallies;
    discrepancies = List.rev !discrepancies;
  }

let discrepancy_count st = List.length st.discrepancies

let to_text st =
  let b = Buffer.create 1024 in
  let cfg = st.run_config in
  Buffer.add_string b
    (Printf.sprintf "check: seed %d, cases %d..%d, max-nodes %d\n" cfg.seed
       cfg.from
       (cfg.from + cfg.cases - 1)
       cfg.max_nodes);
  Buffer.add_string b
    (Printf.sprintf "%-18s %8s %8s %8s\n" "oracle" "pass" "skip" "fail");
  List.iter
    (fun (name, p, s, f) ->
      Buffer.add_string b (Printf.sprintf "%-18s %8d %8d %8d\n" name p s f))
    st.per_oracle;
  (match st.discrepancies with
  | [] -> Buffer.add_string b "no discrepancies\n"
  | ds ->
    Buffer.add_string b
      (Printf.sprintf "\n%d discrepanc%s\n" (List.length ds)
         (if List.length ds = 1 then "y" else "ies"));
    List.iter
      (fun d ->
        Buffer.add_string b
          (Printf.sprintf
             "\n[%s] case %d: %s\n  original case: %s\n  guards: %s\n  %s (original size %d, \
              %d shrink steps)\n  repro: treequery check --seed %d --from %d \
              --cases 1 --oracles %s\n"
             d.oracle_name d.case_index d.message d.original_message d.theorem
             (String.concat "\n  " (String.split_on_char '\n' (Case.to_string d.shrunk)))
             d.original_size d.shrink_steps d.seed d.case_index d.oracle_name))
      ds);
  Buffer.contents b
