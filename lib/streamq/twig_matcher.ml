module Event = Treekit.Event
module Twig = Actree.Twigjoin
module Labels = Hashtbl.Make (String)

type stats = { matched : bool; match_count : int; peak_depth : int; events : int }

(* [Obs.Counter.make] deduplicates by name, so these are the same logical
   counters Path_matcher bumps; a bank of n patterns counts each event n
   times, as n separate matchers would *)
let c_events = Obs.Counter.make "sax_events"

let c_peak = Obs.Counter.make "stream_peak_depth"

let max_nodes = 62

(* The nodes of all patterns are numbered globally: pattern j owns nodes
   [first.(j), first.(j+1)) in its own pre-order, so its root is
   [first.(j)] and node g is bit [g - first.(j)] of pattern j's masks.

   Frames are depth-major [cap × n] arrays: entry [d * n + j] summarises,
   for pattern j, the closed children of the open node at depth d.  A
   frame is nonzero only while j is listed in [dirty] row d, so a [Close]
   visits the patterns that mention its label ([by_label]), those with a
   wildcard leaf ([always]: satisfiable from an empty frame) and that
   row, and nothing else. *)
type t = {
  n : int;
  anchored : bool;
  first : int array;
  label : int array;  (* per node: interned label, -1 = wildcard *)
  need_child : int array;  (* per node: its child-edge children, as bits *)
  need_desc : int array;  (* per node: its descendant-edge children *)
  labels : int Labels.t;
  by_label : int array array;  (* per label: the patterns that mention it *)
  always : int array;
  mutable cap : int;
  mutable child_sat : int array;  (* q matched exactly at some closed child *)
  mutable desc_sat : int array;  (* q matched at some closed strict descendant *)
  mutable dirty : int array;
  mutable dirty_len : int array;
  stamp : int array;  (* per pattern: the last [Close] that evaluated it *)
  mutable closes : int;
  count : int array;  (* per pattern: nodes where its root matched *)
  mutable depth : int;
  mutable peak : int;
  mutable events : int;
}

let create ?(anchored = false) patterns =
  let n = Array.length patterns in
  let first = Array.make (n + 1) 0 in
  Array.iteri
    (fun j p ->
      let size = Twig.pattern_size p in
      if size > max_nodes then invalid_arg "Twig_matcher: pattern too large";
      first.(j + 1) <- first.(j) + size)
    patterns;
  let label = Array.make first.(n) (-1) in
  let need_child = Array.make first.(n) 0 and need_desc = Array.make first.(n) 0 in
  let labels = Labels.create 16 in
  let intern l =
    match Labels.find_opt labels l with
    | Some id -> id
    | None ->
      let id = Labels.length labels in
      Labels.add labels l id;
      id
  in
  let mentions = ref [] and always = ref [] in
  Array.iteri
    (fun j p ->
      let next = ref first.(j) and wild_leaf = ref false in
      let rec visit (node : Twig.node) =
        let g = !next in
        incr next;
        List.iter
          (fun (e, c) ->
            let bit = 1 lsl (visit c - first.(j)) in
            match (e : Twig.edge) with
            | Twig.Child_edge -> need_child.(g) <- need_child.(g) lor bit
            | Twig.Descendant_edge -> need_desc.(g) <- need_desc.(g) lor bit)
          node.children;
        Option.iter (fun l -> label.(g) <- intern l) node.label;
        (* an anchored root is tested at depth 0 only, where every
           pattern is evaluated *)
        if g > first.(j) || not anchored then
          if label.(g) >= 0 then mentions := (label.(g), j) :: !mentions
          else if node.children = [] then wild_leaf := true;
        g
      in
      ignore (visit p);
      if !wild_leaf then always := j :: !always)
    patterns;
  let by_label = Array.make (Labels.length labels) [] in
  List.iter (fun (l, j) -> by_label.(l) <- j :: by_label.(l)) (List.sort_uniq compare !mentions);
  let cap = 16 in
  {
    n;
    anchored;
    first;
    label;
    need_child;
    need_desc;
    labels;
    by_label = Array.map Array.of_list by_label;
    always = Array.of_list (List.rev !always);
    cap;
    child_sat = Array.make (cap * n) 0;
    desc_sat = Array.make (cap * n) 0;
    dirty = Array.make (cap * n) 0;
    dirty_len = Array.make cap 0;
    stamp = Array.make n 0;
    closes = 0;
    count = Array.make n 0;
    depth = 0;
    peak = 0;
    events = 0;
  }

let grow t =
  let cap = 2 * t.cap in
  let extend a len =
    let b = Array.make len 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.child_sat <- extend t.child_sat (cap * t.n);
  t.desc_sat <- extend t.desc_sat (cap * t.n);
  t.dirty <- extend t.dirty (cap * t.n);
  t.dirty_len <- extend t.dirty_len cap;
  t.cap <- cap

(* OR of the bits of nodes [g .. stop-1] that the closing label [l] and
   the frame [cs]/[all] (= cs lor ds) satisfy *)
let rec sat_of t g stop l cs all base acc =
  if g = stop then acc
  else
    let lg = t.label.(g) and nc = t.need_child.(g) and nd = t.need_desc.(g) in
    let acc =
      if (lg < 0 || lg = l) && cs land nc = nc && all land nd = nd then acc lor (1 lsl (g - base))
      else acc
    in
    sat_of t (g + 1) stop l cs all base acc

(* Pattern [j] at the [Close] of a depth-[d] node with label id [l]; its
   root is bit 0, and no pattern node requires it, so it only counts *)
let eval t d l j =
  let f = (d * t.n) + j in
  let cs = t.child_sat.(f) and ds = t.desc_sat.(f) in
  let all = cs lor ds in
  let base = t.first.(j) in
  let from = if t.anchored && d > 0 then base + 1 else base in
  let sat = sat_of t from t.first.(j + 1) l cs all base 0 in
  if sat land 1 <> 0 then t.count.(j) <- t.count.(j) + 1;
  t.stamp.(j) <- t.closes;
  if all <> 0 then begin
    t.child_sat.(f) <- 0;
    t.desc_sat.(f) <- 0
  end;
  if d > 0 && sat lor all <> 0 then begin
    let p = f - t.n in
    let pcs = t.child_sat.(p) and pds = t.desc_sat.(p) in
    if pcs lor pds = 0 then begin
      t.dirty.(((d - 1) * t.n) + t.dirty_len.(d - 1)) <- j;
      t.dirty_len.(d - 1) <- t.dirty_len.(d - 1) + 1
    end;
    t.child_sat.(p) <- pcs lor sat;
    t.desc_sat.(p) <- pds lor all
  end

(* the patterns after the label-indexed ones: skip those already
   evaluated at this [Close] *)
let revisit t d l j = if t.stamp.(j) <> t.closes then eval t d l j

let close t d label =
  t.closes <- t.closes + 1;
  let l = match Labels.find t.labels label with id -> id | exception Not_found -> -1 in
  if l >= 0 then begin
    let js = t.by_label.(l) in
    for i = 0 to Array.length js - 1 do
      eval t d l js.(i)
    done
  end;
  for i = 0 to Array.length t.always - 1 do
    revisit t d l t.always.(i)
  done;
  let row = d * t.n in
  for i = 0 to t.dirty_len.(d) - 1 do
    revisit t d l t.dirty.(row + i)
  done;
  t.dirty_len.(d) <- 0;
  if t.anchored && d = 0 then
    for j = 0 to t.n - 1 do
      revisit t d l j
    done

let push t ev =
  t.events <- t.events + 1;
  if t.n > 0 then Obs.Counter.add c_events t.n;
  match ev with
  | Event.Open _ ->
    if t.depth = t.cap then grow t;
    t.depth <- t.depth + 1;
    if t.depth > t.peak then begin
      t.peak <- t.depth;
      if t.n > 0 then Obs.Counter.record_max c_peak t.peak
    end
  | Event.Close { label; _ } ->
    if t.depth = 0 then invalid_arg "Twig_matcher: unbalanced events";
    t.depth <- t.depth - 1;
    if t.n > 0 then close t t.depth label

let reset t =
  (* a complete document leaves every frame zero; a truncated one leaves
     the frames of its still-open nodes, listed in their dirty rows *)
  for d = 0 to t.depth - 1 do
    let row = d * t.n in
    for i = 0 to t.dirty_len.(d) - 1 do
      t.child_sat.(row + t.dirty.(row + i)) <- 0;
      t.desc_sat.(row + t.dirty.(row + i)) <- 0
    done;
    t.dirty_len.(d) <- 0
  done;
  Array.fill t.count 0 t.n 0;
  t.depth <- 0;
  t.peak <- 0;
  t.events <- 0

let matched t j = t.count.(j) > 0

let stats t j =
  { matched = t.count.(j) > 0; match_count = t.count.(j); peak_depth = t.peak; events = t.events }

let feed ?anchored pattern =
  let t = create ?anchored [| pattern |] in
  (push t, fun () -> stats t 0)

let run ?anchored tree pattern =
  let t = create ?anchored [| pattern |] in
  Event.iter tree (push t);
  stats t 0

let matches ?anchored tree pattern = (run ?anchored tree pattern).matched
