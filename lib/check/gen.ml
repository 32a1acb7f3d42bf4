module Axis = Treekit.Axis
module Tree = Treekit.Tree

type config = { max_nodes : int; labels : string array }

let default = { max_nodes = 40; labels = [| "a"; "b"; "c"; "d" |] }

(* stable string hash (do not use Hashtbl.hash: its value is not part of
   any compatibility contract, and repro lines must replay across builds) *)
let salt_hash s =
  String.fold_left (fun h c -> ((h * 131) + Char.code c) land 0x3FFFFFFF) 7 s

let rng_for ~seed ~case ~salt = Random.State.make [| seed; case; salt_hash salt |]

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let sub_alphabet cfg rng =
  let k = 1 + Random.State.int rng (Array.length cfg.labels) in
  Array.sub cfg.labels 0 k

(* relabel a fixed-shape generator's output with random labels *)
let relabel rng labels t =
  let n = Tree.size t in
  let parents = Array.init n (Tree.parent t) in
  let labs =
    Array.init n (fun _ -> labels.(Random.State.int rng (Array.length labels)))
  in
  Tree.of_parent_vector ~parents ~labels:labs ()

let tree cfg rng =
  let n = 1 + Random.State.int rng cfg.max_nodes in
  let labels = sub_alphabet cfg rng in
  match Random.State.int rng 12 with
  | 0 | 1 | 2 | 3 | 4 -> Treekit.Generator.random ~rng ~n ~labels ()
  | 5 | 6 | 7 | 8 ->
    let descend_bias = 0.15 +. Random.State.float rng 0.8 in
    Treekit.Generator.random_deep ~rng ~n ~labels ~descend_bias ()
  | 9 -> relabel rng labels (Treekit.Generator.path ~n ())
  | 10 -> relabel rng labels (Treekit.Generator.star ~n ())
  | _ ->
    let fanout = 2 + Random.State.int rng 2 in
    let depth = Random.State.int rng 3 in
    relabel rng labels (Treekit.Generator.full ~fanout ~depth ())

(* axis mixes: each query draws its pool, so the corpus covers both broad
   and fragment-specific axis usage *)
let axis_pools =
  [
    Axis.all;
    Axis.forward;
    [ Axis.Child; Axis.Descendant; Axis.Descendant_or_self ];
    [ Axis.Child; Axis.Next_sibling; Axis.Following_sibling; Axis.Following_sibling_or_self ];
    [ Axis.Parent; Axis.Ancestor; Axis.Child; Axis.Descendant ];
    [ Axis.Self; Axis.Child; Axis.Descendant; Axis.Preceding; Axis.Following ];
  ]

let xpath ?axes ?allow_negation ?allow_union ?(max_depth = 3) cfg rng =
  let axes = match axes with Some a -> a | None -> pick rng axis_pools in
  let allow_negation =
    match allow_negation with Some b -> b | None -> Random.State.bool rng
  in
  let allow_union =
    match allow_union with Some b -> b | None -> Random.State.bool rng
  in
  let depth = 1 + Random.State.int rng max_depth in
  let labels = sub_alphabet cfg rng in
  Case.Xpath
    (Xpath.Generator.random ~rng ~depth ~labels ~axes ~allow_negation ~allow_union ())

let cq_acyclic cfg rng =
  let nvars = 1 + Random.State.int rng 3 in
  let labels = sub_alphabet cfg rng in
  let axes = pick rng axis_pools in
  let head_arity = 1 + Random.State.int rng (min 2 nvars) in
  Case.Cq
    (Cqtree.Generator.acyclic ~rng ~nvars ~axes ~labels ~extra_atom_prob:0.15
       ~head_arity ())

let cq_arbitrary cfg rng =
  let nvars = 2 + Random.State.int rng 2 in
  let natoms = 2 + Random.State.int rng 3 in
  let labels = sub_alphabet cfg rng in
  let head_arity = 1 + Random.State.int rng 2 in
  Case.Cq
    (Cqtree.Generator.arbitrary ~rng ~nvars ~natoms ~axes:Axis.all ~labels
       ~head_arity ())

let cq_xproperty cfg rng =
  let _, axes, _ = pick rng Actree.Xproperty.signatures in
  let nvars = 2 + Random.State.int rng 2 in
  let natoms = 2 + Random.State.int rng 2 in
  let labels = sub_alphabet cfg rng in
  let head_arity = 1 + Random.State.int rng 2 in
  Case.Cq
    (Cqtree.Generator.arbitrary ~rng ~nvars ~natoms ~axes ~labels ~head_arity ())

let pattern cfg rng =
  let length = 1 + Random.State.int rng 4 in
  Case.Pattern (Streamq.Path_pattern.random ~rng ~length ~labels:cfg.labels ())

let auto cfg rng =
  let labels = cfg.labels in
  let lab () = labels.(Random.State.int rng (Array.length labels)) in
  let leaf () =
    match Random.State.int rng 6 with
    | 0 -> Case.Exists_label (lab ())
    | 1 -> Case.Root_label (lab ())
    | 2 -> Case.All_leaves (lab ())
    | 3 ->
      let m = 2 + Random.State.int rng 3 in
      Case.Count_mod (lab (), m, Random.State.int rng m)
    | 4 -> Case.Every_desc (lab (), lab ())
    | _ -> Case.Adjacent (lab (), lab ())
  in
  let rec build d =
    if d = 0 then leaf ()
    else
      match Random.State.int rng 4 with
      | 0 -> Case.Conj (build (d - 1), build (d - 1))
      | 1 -> Case.Disj (build (d - 1), build (d - 1))
      | 2 -> Case.Compl (build (d - 1))
      | _ -> leaf ()
  in
  Case.Auto (build (Random.State.int rng 3))

let axis_law _cfg rng = Case.Axis_law (pick rng Axis.all)

let order_law _cfg rng = Case.Order_law (pick rng Treekit.Order.all_kinds)

(* synthetic observability reports for the JSON round-trip oracle.  All
   durations are whole microseconds (and ms magnitudes stay well under
   10^9 = 9 significant digits), so serialising, parsing and
   re-serialising must reproduce the exact byte string; names and attr
   strings deliberately exercise every escape class the writer knows
   (quote, backslash, \n, \r, \t, raw control byte, non-ASCII). *)
let obs_report _cfg rng =
  let ri n = Random.State.int rng n in
  let dur () = float_of_int (ri 1_000_000) /. 1_000_000.0 in
  let names =
    [|
      "eval"; "load-document"; "semijoin"; "request-7"; "weird \"name\"";
      "back\\slash"; "tab\there"; "line\nbreak"; "cr\rhere"; "ctrl\001byte";
      "caf\xc3\xa9";
    |]
  in
  let name () = names.(ri (Array.length names)) in
  let attr () =
    let keys = [| "|D|"; "|Q|"; "strategy"; "fingerprint"; "note" |] in
    ( keys.(ri (Array.length keys)),
      if Random.State.bool rng then Obs.Int (ri 200_000 - 100_000)
      else Obs.Str (name ()) )
  in
  let attrs () = List.init (ri 3) (fun _ -> attr ()) in
  let rec span depth =
    {
      Obs.Report.name = name ();
      start = (if Random.State.bool rng then 0.0 else dur ());
      duration = dur ();
      attrs = attrs ();
      children =
        (if depth = 0 then [] else List.init (ri 3) (fun _ -> span (depth - 1)));
    }
  in
  let summary () =
    {
      Obs.count = 1 + ri 10_000;
      mean = dur ();
      p50 = dur ();
      p90 = dur ();
      p95 = dur ();
      p99 = dur ();
      max = dur ();
    }
  in
  let profile i =
    {
      Obs.profile_label = Printf.sprintf "request-%d" i;
      profile_attrs = attrs ();
      profile_counters = List.init (ri 3) (fun j -> (Printf.sprintf "work_%d" j, ri 100_000));
      profile_duration = dur ();
    }
  in
  Case.Obs_report
    {
      Obs.Report.spans = List.init (ri 4) (fun _ -> span (1 + ri 2));
      counters =
        List.init (ri 4) (fun i -> (Printf.sprintf "nodes_visited_%d" i, ri 1_000_000));
      histograms = List.init (ri 3) (fun i -> (Printf.sprintf "latency_%d" i, summary ()));
      profiles = List.init (ri 3) profile;
    }

(* adversarial samples for the latency-summary oracle: heavy duplicate
   mass, pre-sorted and reverse-sorted runs, single elements, two-valued
   mixtures and random draws.  Values live on a small quarter-integer
   grid so every arithmetic combination (sums, means) is exact in binary
   floating point and repro lines stay short. *)
let latency_sample _cfg rng =
  let ri n = Random.State.int rng n in
  let v () = float_of_int (ri 65) /. 4.0 in
  let n = 1 + ri 24 in
  let xs =
    match ri 6 with
    | 0 ->
      let x = v () in
      List.init n (fun _ -> x)
    | 1 -> List.sort compare (List.init n (fun _ -> v ()))
    | 2 -> List.sort (fun a b -> compare b a) (List.init n (fun _ -> v ()))
    | 3 -> [ v () ]
    | 4 ->
      let a = v () and b = v () in
      List.init n (fun i -> if i mod 2 = 0 then a else b)
    | _ -> List.init n (fun _ -> v ())
  in
  Case.Latency_sample xs

(* a chain CQ for the standing index's trie: 1–3 atoms over child,
   descendant and following, a quarter written as the inverse atom;
   labels from the alphabet, a quarter of the variables unlabeled (so
   X0 matches the root, among other nodes) *)
let chain cfg rng =
  let var i = Printf.sprintf "X%d" i in
  let test i =
    if Random.State.int rng 4 = 0 then []
    else
      let l = cfg.labels.(Random.State.int rng (Array.length cfg.labels)) in
      [ Cqtree.Query.U (Cqtree.Query.Lab l, var i) ]
  in
  let step i =
    let axis = pick rng [ Axis.Child; Axis.Descendant; Axis.Following ] in
    if Random.State.int rng 4 = 0 then Cqtree.Query.A (Axis.inverse axis, var i, var (i - 1))
    else Cqtree.Query.A (axis, var (i - 1), var i)
  in
  let k = 1 + Random.State.int rng 3 in
  let atoms = test 0 @ List.concat (List.init k (fun i -> step (i + 1) :: test (i + 1))) in
  let head = if Random.State.bool rng then [] else [ var (Random.State.int rng (k + 1)) ] in
  Case.Cq { Cqtree.Query.head; atoms }

(* a chain or a spine of 3–4 positions joined by descendant steps, each
   labelled with one of the first two labels: on the oracle's small
   trees such a query often holds only through a position two or more
   levels below the one before it, which is what tells [descendant]
   from [child] *)
let gap cfg rng =
  let k = 2 + Random.State.int rng 2 in
  let lab () = cfg.labels.(Random.State.int rng (min 2 (Array.length cfg.labels))) in
  let labels = List.init (k + 1) (fun _ -> lab ()) in
  if Random.State.bool rng then
    Case.Pattern
      (List.map (fun l -> { Streamq.Path_pattern.edge = Descendant; label = Some l }) labels)
  else
    let var i = Printf.sprintf "X%d" i in
    let atoms =
      List.concat
        (List.mapi
           (fun i l ->
             Cqtree.Query.U (Cqtree.Query.Lab l, var i)
             :: (if i = 0 then [] else [ Cqtree.Query.A (Axis.Descendant, var (i - 1), var i) ]))
           labels)
    in
    Case.Cq { Cqtree.Query.head = []; atoms }

(* standing-query scripts: a churn of registrations (across all four
   index classes — spines, chain CQs among them, twigs via qualified
   XPath, other CQs and XPath for the general plans, automata),
   unregistrations of earlier script positions, and match points.
   Always ends on a match so every script exercises the index;
   unregistrations between matches exercise churn mid-stream. *)
let standing cfg rng =
  let registered q = Case.S_register q in
  let gen_registration () =
    match Random.State.int rng 8 with
    | 0 -> registered (pattern cfg rng)
    | 1 | 2 ->
      registered
        (xpath
           ~axes:[ Axis.Child; Axis.Descendant; Axis.Descendant_or_self ]
           ~allow_negation:false ~allow_union:false cfg rng)
    | 3 -> registered (xpath cfg rng)
    | 4 | 5 -> registered (chain cfg rng)
    | 6 -> registered (gap cfg rng)
    | _ -> if Random.State.bool rng then registered (cq_arbitrary cfg rng)
           else registered (auto cfg rng)
  in
  let n = 2 + Random.State.int rng 7 in
  let ops =
    List.init n (fun i ->
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 -> gen_registration ()
        | 5 when i > 0 -> Case.S_unregister (Random.State.int rng i)
        | 5 -> gen_registration ()
        | _ -> Case.S_match)
  in
  Case.Standing (ops @ [ Case.S_match ])

let setops cfg rng =
  let lab () = cfg.labels.(Random.State.int rng (Array.length cfg.labels)) in
  let op () =
    match Random.State.int rng 8 with
    | 0 | 1 -> Case.Add (Random.State.int rng 1024)
    | 2 -> Case.Remove (Random.State.int rng 1024)
    | 3 -> Case.Add_range (Random.State.int rng 1024, Random.State.int rng 1024)
    | 4 -> Case.Union_label (lab ())
    | 5 -> Case.Inter_label (lab ())
    | 6 -> Case.Diff_label (lab ())
    | _ -> Case.Complement
  in
  Case.Setops (List.init (1 + Random.State.int rng 12) (fun _ -> op ()))
