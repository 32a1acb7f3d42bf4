(* Every input the benchmark sends, made from seeds alone.

   The program under test receives only text made here: XML documents,
   XPath and conjunctive-query strings.  The schedules that decide which
   text is sent when (Zipf popularity, Poisson arrivals, registration
   churn) come from here too.  Nothing is drawn from the library's own
   generators, so a library change cannot silently change the workload,
   and [Digest_acc] names the inputs so two commits can be shown to have
   run identical ones. *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]

(* The seed of every workload's query population — the distinct serving
   queries and their popularity ranks, and the standing registrations.
   It is part of the workload's definition rather than of a run: with
   Zipf popularity a handful of queries take most of the traffic, so
   drawing them from the run's seed would make each seed a different
   workload.  The run's seed draws the documents, the request order,
   the arrival times and the churn. *)
let population_seed = 20060626

let pick rng a = a.(Random.State.int rng (Array.length a))

(* ------------------------------------------------------------------ *)
(* The XMark element structure (as in Treekit.Generator.xmark)         *)

let schema =
  [
    ("site", [ "regions"; "categories"; "people"; "open_auctions"; "closed_auctions" ]);
    ("regions", [ "africa"; "asia"; "europe"; "namerica" ]);
    ("africa", [ "item" ]);
    ("asia", [ "item" ]);
    ("europe", [ "item" ]);
    ("namerica", [ "item" ]);
    ("item", [ "location"; "quantity"; "name"; "description"; "mailbox" ]);
    ("description", [ "parlist" ]);
    ("mailbox", [ "mail" ]);
    ("mail", [ "from"; "to"; "date" ]);
    ("categories", [ "category" ]);
    ("category", [ "name" ]);
    ("people", [ "person" ]);
    ("person", [ "name"; "emailaddress"; "address"; "profile"; "watches" ]);
    ("address", [ "street"; "city"; "country" ]);
    ("profile", [ "interest"; "education" ]);
    ("open_auctions", [ "open_auction" ]);
    ("open_auction", [ "initial"; "reserve"; "bidder"; "itemref"; "seller"; "annotation" ]);
    ("bidder", [ "date"; "time"; "personref"; "increase" ]);
    ("annotation", [ "author"; "happiness" ]);
    ("closed_auctions", [ "closed_auction" ]);
    ("closed_auction", [ "seller"; "buyer"; "itemref"; "price"; "date" ]);
  ]

let children l = Option.value ~default:[] (List.assoc_opt l schema)

let labels =
  Array.of_list
    (List.sort_uniq compare
       (List.concat_map (fun (l, cs) -> l :: cs) schema))

(* An XMark-style document as XML text: the element structure of
   [Treekit.Generator.xmark], about 36·scale elements, with id
   attributes and a little character data so the parser skips what a
   real document carries.  Where the library draws each section's
   length uniformly from [1, scale], every section here holds scale/2
   entries, the library's mean: the seed still shapes each entry, but
   document size (and with it the cost of every op) does not swing
   with it. *)
let xmark_text rng ~scale =
  let b = Buffer.create (scale * 500) in
  let count lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let many lo hi f = for _ = 1 to count lo hi do f () done in
  let section f = for _ = 1 to max 1 (scale / 2) do f () done in
  let leaf l = Printf.bprintf b "<%s/>" l in
  let text l = Printf.bprintf b "<%s>%d</%s>" l (Random.State.int rng 10000) l in
  let next_id = ref 0 in
  let node ?id l body =
    (match id with
    | None -> Printf.bprintf b "<%s>" l
    | Some prefix ->
      incr next_id;
      Printf.bprintf b "<%s id=\"%s%d\">" l prefix !next_id);
    body ();
    Printf.bprintf b "</%s>" l
  in
  let item () =
    node ~id:"item" "item" (fun () ->
        leaf "location";
        text "quantity";
        leaf "name";
        node "description" (fun () -> many 0 2 (fun () -> leaf "parlist"));
        node "mailbox" (fun () ->
            many 0 2 (fun () ->
                node "mail" (fun () -> leaf "from"; leaf "to"; text "date"))))
  in
  let person () =
    node ~id:"person" "person" (fun () ->
        leaf "name";
        leaf "emailaddress";
        many 0 1 (fun () ->
            node "address" (fun () -> leaf "street"; leaf "city"; leaf "country"));
        many 0 1 (fun () -> node "profile" (fun () -> leaf "interest"; leaf "education"));
        many 0 1 (fun () -> leaf "watches"))
  in
  let open_auction () =
    node ~id:"open_auction" "open_auction" (fun () ->
        text "initial";
        leaf "reserve";
        node "bidder" (fun () ->
            text "date"; leaf "time"; leaf "personref"; text "increase");
        leaf "itemref";
        leaf "seller";
        node "annotation" (fun () -> leaf "author"; leaf "happiness"))
  in
  let closed_auction () =
    node "closed_auction" (fun () ->
        leaf "seller"; leaf "buyer"; leaf "itemref"; text "price"; text "date")
  in
  Buffer.add_string b "<?xml version=\"1.0\"?>\n";
  node "site" (fun () ->
      node "regions" (fun () ->
          List.iter
            (fun r -> node r (fun () -> section item))
            [ "africa"; "asia"; "europe"; "namerica" ]);
      node "categories" (fun () ->
          section (fun () -> node "category" (fun () -> leaf "name")));
      node "people" (fun () -> section person);
      node "open_auctions" (fun () -> section open_auction);
      node "closed_auctions" (fun () -> section closed_auction));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Query text                                                          *)

type lang = Xpath | Cq

type query = { text : string; lang : lang }

(* The serving vocabulary and grammar of [Serve.Workload]: 1–3
   child/descendant steps, a third of them qualified; conjunctive
   chains of 2–3 atoms over child/descendant/following (the following
   ones take the exponential-in-|Q| rewrite, the plan worth caching). *)
let vocab =
  [|
    "site"; "regions"; "item"; "name"; "description"; "mailbox"; "mail";
    "date"; "people"; "person"; "address"; "city"; "country";
    "open_auctions"; "open_auction"; "bidder"; "increase";
    "closed_auctions"; "closed_auction"; "price"; "seller"; "buyer";
    "annotation"; "itemref"; "personref"; "author"; "category"; "location";
  |]

let serve_xpath rng =
  let b = Buffer.create 48 in
  for _ = 1 to 1 + Random.State.int rng 3 do
    Buffer.add_string b (if Random.State.bool rng then "//" else "/");
    Buffer.add_string b (pick rng vocab);
    if Random.State.int rng 3 = 0 then
      match Random.State.int rng 3 with
      | 0 -> Printf.bprintf b "[%s]" (pick rng vocab)
      | 1 -> Printf.bprintf b "[%s//%s]" (pick rng vocab) (pick rng vocab)
      | _ -> Printf.bprintf b "[%s/%s]" (pick rng vocab) (pick rng vocab)
  done;
  { text = Buffer.contents b; lang = Xpath }

let cq rng =
  let b = Buffer.create 64 in
  Printf.bprintf b "q(X0) :- lab(X0, \"%s\")" (pick rng vocab);
  for i = 1 to 1 + Random.State.int rng 2 do
    Printf.bprintf b ", %s(X%d, X%d), lab(X%d, \"%s\")"
      (pick rng [| "child"; "descendant"; "following" |])
      (i - 1) i i (pick rng vocab)
  done;
  { text = Buffer.contents b; lang = Cq }

(* [n] pairwise-distinct texts from [gen] *)
let distinct rng n gen =
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] and found = ref 0 and tries = ref 0 in
  while !found < n do
    incr tries;
    if !tries > 1000 * n then failwith "Gen.distinct: grammar too small";
    let q = gen rng in
    if not (Hashtbl.mem seen q.text) then begin
      Hashtbl.add seen q.text ();
      out := q :: !out;
      incr found
    end
  done;
  Array.of_list (List.rev !out)

(* 4/5 Core XPath, 1/5 conjunctive, as in the serving workload *)
let serve_queries rng n =
  distinct rng n (fun rng -> if Random.State.int rng 5 < 4 then serve_xpath rng else cq rng)

(* A label path of the schema below the root, drawn top-down; entry [i]
   sits at depth [i + 1]. *)
let schema_path rng =
  let rec down l acc =
    match children l with
    | [] -> List.rev acc
    | cs ->
      if acc <> [] && Random.State.int rng 4 = 0 then List.rev acc
      else
        let c = pick rng (Array.of_list cs) in
        down c (c :: acc)
  in
  Array.of_list (down "site" [])

(* A label, replaced by a random one a quarter of the time, so that a
   share of the subscriptions match nothing, as in any real population. *)
let maybe_miss rng l = if Random.State.int rng 4 = 0 then pick rng labels else l

(* A forward spine along a schema path: a random suffix of its labels,
   consecutive ones joined by "/", skipped stretches by "//".  Queries
   are evaluated at the root element, so a leading "/" is its child. *)
let spine_steps rng =
  let path = schema_path rng in
  let n = Array.length path in
  let start = Random.State.int rng n in
  let steps = ref [] and prev = ref (-1) in
  for i = start to n - 1 do
    if i = start || i = n - 1 || Random.State.int rng 3 > 0 then begin
      steps := ((if i = !prev + 1 then "/" else "//"), path.(i)) :: !steps;
      prev := i
    end
  done;
  List.rev !steps

let render steps =
  String.concat "" (List.map (fun (sep, l, q) -> sep ^ l ^ q) steps)

let spine rng =
  let steps = List.map (fun (sep, l) -> (sep, maybe_miss rng l, "")) (spine_steps rng) in
  { text = render steps; lang = Xpath }

(* A qualifier below label [l]: [c], [c/d] or [c//d] along the schema. *)
let qualifier rng l =
  match children l with
  | [] -> None
  | cs -> (
    let c = pick rng (Array.of_list cs) in
    match children c with
    | [] -> Some (Printf.sprintf "[%s]" (maybe_miss rng c))
    | ds ->
      let d = maybe_miss rng (pick rng (Array.of_list ds)) in
      Some
        (if Random.State.bool rng then Printf.sprintf "[%s/%s]" c d
         else Printf.sprintf "[%s//%s]" c d))

(* A spine with one or two qualified steps: the streaming twig class. *)
let twig rng =
  let rec attempt () =
    let steps = Array.of_list (spine_steps rng) in
    let quals = Array.map (fun (_, l) -> qualifier rng l) steps in
    let qualifiable = List.filter (fun i -> quals.(i) <> None) (List.init (Array.length steps) Fun.id) in
    if qualifiable = [] then attempt ()
    else begin
      let chosen = Array.make (Array.length steps) false in
      chosen.(pick rng (Array.of_list qualifiable)) <- true;
      if Random.State.int rng 3 = 0 then chosen.(pick rng (Array.of_list qualifiable)) <- true;
      let text =
        render
          (Array.to_list
             (Array.mapi
                (fun i (sep, l) ->
                  let q = if chosen.(i) then Option.get quals.(i) else "" in
                  (sep, maybe_miss rng l, q))
                steps))
      in
      { text; lang = Xpath }
    end
  in
  attempt ()

(* A standing registration: twig, spine and conjunctive shares out of
   100. *)
let registration ~twig_pct ~spine_pct rng =
  let r = Random.State.int rng 100 in
  if r < twig_pct then twig rng
  else if r < twig_pct + spine_pct then spine rng
  else cq rng

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)

(* Zipf(1) popularity over [n] items: rank k has weight 1/(k+1). *)
let zipf_cdf n =
  let w = Array.init n (fun k -> 1.0 /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let inverse_cdf cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [count] item ranks with Zipf(1) popularity, drawn block by block:
   each block of [block] ranks is a systematic sample of the
   distribution (one random offset, then evenly spaced quantiles), in
   random order.  Every block thus holds each item floor or ceil of its
   expected count, so a block costs the same whatever the seed, while
   order and the rare tail items still vary.  Independent draws would
   let the few expensive queries cluster, and the work of a block swing
   by a tenth from seed to seed. *)
let zipf_sequence rng ~items ~count ~block =
  let cdf = zipf_cdf items in
  let out = Array.make count 0 in
  let pos = ref 0 in
  while !pos < count do
    let n = min block (count - !pos) in
    let offset = Random.State.float rng 1.0 in
    let b = Array.init n (fun i -> inverse_cdf cdf ((float_of_int i +. offset) /. float_of_int n)) in
    shuffle rng b;
    Array.blit b 0 out !pos n;
    pos := !pos + n
  done;
  out

(* Poisson arrivals: [count] due times (seconds from the phase start) at
   [rate] per second. *)
let poisson rng ~rate ~count =
  let t = ref 0.0 in
  Array.init count (fun _ ->
      t := !t -. (log (1.0 -. Random.State.float rng 1.0) /. rate);
      !t)

type churn = Register of int * query | Unregister of int

(* [per_doc] register/unregister events before each of [docs]
   documents, half of each, against a population whose ids [0, live)
   are registered at the start: each unregistration drops a live id,
   each registration adds a fresh id with a query from [gen]. *)
let churn rng ~live ~docs ~per_doc gen =
  let pop = Array.init live Fun.id in
  let next = ref live and hole = ref 0 in
  Array.init docs (fun _ ->
      Array.init per_doc (fun k ->
          if k mod 2 = 0 then begin
            hole := Random.State.int rng live;
            Unregister pop.(!hole)
          end
          else begin
            pop.(!hole) <- !next;
            incr next;
            Register (pop.(!hole), gen rng)
          end))

(* ------------------------------------------------------------------ *)
(* The input digest                                                    *)

module Digest_acc = struct
  type t = Digest.t ref

  let create () = ref (Digest.string "")

  let add t s = t := Digest.string (!t ^ Digest.string s)

  let add_floats t a =
    add t (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)))

  let add_ints t a =
    add t (String.concat "," (Array.to_list (Array.map string_of_int a)))

  let hex t = Digest.to_hex !t
end
