module Event = Treekit.Event
module Twig = Actree.Twigjoin

type stats = { matched : bool; match_count : int; peak_depth : int; events : int }

(* [Obs.Counter.make] deduplicates by name, so these are the same logical
   counters Path_matcher bumps; a bank of n patterns counts each event n
   times, as n separate matchers would *)
let c_events = Obs.Counter.make "sax_events"

let c_peak = Obs.Counter.make "stream_peak_depth"

let max_nodes = 62

(* The compiled half.  Each pattern owns a slot of [slots]; its nodes
   are numbered in its own pre-order, so its root is node 0 and node g
   is bit g of its masks, and [code.(slot)] holds three ints per node:
   the interned label (-1 = wildcard), the node's child-edge children
   and its descendant-edge children, as bits.  The slot is filed under
   each label it mentions and, when it has a wildcard leaf (satisfiable
   from an empty frame), under key 0. *)
type bank = {
  anchored : bool;
  slots : Bank_slots.t;
  mutable code : int array array;  (* [||] = free slot *)
}

let bank ?(anchored = false) () = { anchored; slots = Bank_slots.create (); code = [||] }

let compile b p =
  let size = Twig.pattern_size p in
  if size > max_nodes then invalid_arg "Twig_matcher: pattern too large";
  let code = Array.make (3 * size) 0 in
  let next = ref 0 and mentions = ref [] and wild_leaf = ref false in
  let rec visit (node : Twig.node) =
    let g = !next in
    incr next;
    List.iter
      (fun (e, c) ->
        let bit = 1 lsl visit c in
        match (e : Twig.edge) with
        | Twig.Child_edge -> code.((3 * g) + 1) <- code.((3 * g) + 1) lor bit
        | Twig.Descendant_edge -> code.((3 * g) + 2) <- code.((3 * g) + 2) lor bit)
      node.children;
    code.(3 * g) <- (match node.label with Some l -> Bank_slots.intern b.slots l | None -> -1);
    (* an anchored root is tested at depth 0 only, where every
       pattern is evaluated *)
    if g > 0 || not b.anchored then
      if code.(3 * g) >= 0 then mentions := code.(3 * g) :: !mentions
      else if node.children = [] then wild_leaf := true;
    g
  in
  ignore (visit p);
  let keys = List.sort_uniq compare (if !wild_leaf then 0 :: !mentions else !mentions) in
  (code, Array.of_list keys)

let add b p =
  let code, keys = compile b p in
  let slot = Bank_slots.add b.slots keys in
  if slot = Array.length b.code then begin
    let bigger = Array.make (max 8 (2 * slot)) [||] in
    Array.blit b.code 0 bigger 0 slot;
    b.code <- bigger
  end;
  b.code.(slot) <- code;
  slot

let remove b slot =
  if slot < 0 || slot >= b.slots.used || Array.length b.code.(slot) = 0 then
    invalid_arg "Twig_matcher.remove: free slot";
  Bank_slots.remove b.slots slot;
  b.code.(slot) <- [||]

let live b = b.slots.live

(* The per-document half.  Frames are depth-major [cap × n] arrays, n
   the slot stride: entry [d * n + j] summarises, for slot j, the closed
   children of the open node at depth d.  A frame is nonzero only while
   j is listed in [dirty] row d, so a [Close] visits the patterns that
   mention its label, those with a wildcard leaf and that row, and
   nothing else.  [reset] regrows the arrays when the bank has handed
   out more slots than the stride holds. *)
type t = {
  bank : bank;
  mutable n : int;
  mutable cap : int;
  mutable child_sat : int array;  (* q matched exactly at some closed child *)
  mutable desc_sat : int array;  (* q matched at some closed strict descendant *)
  mutable dirty : int array;
  mutable dirty_len : int array;
  mutable stamp : int array;  (* per slot: the last [Close] that evaluated it *)
  mutable closes : int;
  mutable count : int array;  (* per slot: nodes where its root matched *)
  mutable hits : int array;  (* the slots with a nonzero count *)
  mutable hits_len : int;
  mutable depth : int;
  mutable peak : int;
  mutable events : int;
}

(* fresh, zeroed arrays for a stride of [n] slots; stamps restart at
   zero while [closes] keeps counting upward, so no stale stamp can
   collide *)
let restride t n =
  t.n <- n;
  t.child_sat <- Array.make (t.cap * n) 0;
  t.desc_sat <- Array.make (t.cap * n) 0;
  t.dirty <- Array.make (t.cap * n) 0;
  t.dirty_len <- Array.make t.cap 0;
  t.stamp <- Array.make n 0;
  t.count <- Array.make n 0;
  t.hits <- Array.make n 0

let pass bank =
  let t =
    {
      bank; n = 0; cap = 16; child_sat = [||]; desc_sat = [||]; dirty = [||]; dirty_len = [||];
      stamp = [||]; closes = 0; count = [||]; hits = [||]; hits_len = 0; depth = 0; peak = 0;
      events = 0;
    }
  in
  restride t bank.slots.used;
  t

let create ?anchored patterns =
  let b = bank ?anchored () in
  Array.iter (fun p -> ignore (add b p)) patterns;
  pass b

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

(* OR of the bits of the nodes from code offset [i] (node [i / 3], bit
   [bit]) to [stop] that the closing label [l] and the frame [cs]/[all]
   (= cs lor ds) satisfy *)
let rec sat_of code i stop bit l cs all acc =
  if i = stop then acc
  else
    let lg = code.(i) and nc = code.(i + 1) and nd = code.(i + 2) in
    let acc = if (lg < 0 || lg = l) && cs land nc = nc && all land nd = nd then acc lor bit else acc in
    sat_of code (i + 3) stop (bit lsl 1) l cs all acc

(* Pattern [j] at the [Close] of a depth-[d] node with label id [l]; its
   root is bit 0, and no pattern node requires it, so it only counts *)
let eval t d l j =
  let n = t.n in
  let f = (d * n) + j in
  let cs = t.child_sat.(f) and ds = t.desc_sat.(f) in
  let all = cs lor ds in
  let code = t.bank.code.(j) in
  let sat =
    if t.bank.anchored && d > 0 then sat_of code 3 (Array.length code) 2 l cs all 0
    else sat_of code 0 (Array.length code) 1 l cs all 0
  in
  if sat land 1 <> 0 then begin
    if t.count.(j) = 0 then begin
      t.hits.(t.hits_len) <- j;
      t.hits_len <- t.hits_len + 1
    end;
    t.count.(j) <- t.count.(j) + 1
  end;
  t.stamp.(j) <- t.closes;
  if all <> 0 then begin
    t.child_sat.(f) <- 0;
    t.desc_sat.(f) <- 0
  end;
  if d > 0 && sat lor all <> 0 then begin
    let p = f - n in
    let pcs = t.child_sat.(p) and pds = t.desc_sat.(p) in
    if pcs lor pds = 0 then begin
      t.dirty.(((d - 1) * n) + t.dirty_len.(d - 1)) <- j;
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
  let b = t.bank in
  let s = b.slots in
  let keys = Array.length s.len in
  let l = match Bank_slots.Labels.find s.labels label with id -> id | exception Not_found -> 0 in
  if l > 0 && l < keys then begin
    let js = s.members.(l) in
    for i = 0 to s.len.(l) - 1 do
      eval t d l js.(i)
    done
  end;
  if keys > 0 then begin
    let js = s.members.(0) in
    for i = 0 to s.len.(0) - 1 do
      revisit t d l js.(i)
    done
  end;
  let row = d * t.n in
  for i = 0 to t.dirty_len.(d) - 1 do
    revisit t d l t.dirty.(row + i)
  done;
  t.dirty_len.(d) <- 0;
  if b.anchored && d = 0 then
    for j = 0 to s.used - 1 do
      if Array.length b.code.(j) > 0 then revisit t d l j
    done

let push t ev =
  t.events <- t.events + 1;
  let live = t.bank.slots.live in
  if live > 0 then Obs.Counter.add c_events live;
  match ev with
  | Event.Open _ ->
    if t.depth = t.cap then grow t;
    t.depth <- t.depth + 1;
    if t.depth > t.peak then begin
      t.peak <- t.depth;
      if live > 0 then Obs.Counter.record_max c_peak t.peak
    end
  | Event.Close { label; _ } ->
    if t.depth = 0 then invalid_arg "Twig_matcher: unbalanced events";
    t.depth <- t.depth - 1;
    if live > 0 then close t t.depth label

(* Forget the document; make room for slots added since the last
   reset.  A complete document leaves every frame zero; a truncated one
   leaves the frames of its still-open nodes, listed in their dirty
   rows. *)
let reset t =
  for d = 0 to t.depth - 1 do
    let row = d * t.n in
    for i = 0 to t.dirty_len.(d) - 1 do
      t.child_sat.(row + t.dirty.(row + i)) <- 0;
      t.desc_sat.(row + t.dirty.(row + i)) <- 0
    done;
    t.dirty_len.(d) <- 0
  done;
  for i = 0 to t.hits_len - 1 do
    t.count.(t.hits.(i)) <- 0
  done;
  t.hits_len <- 0;
  t.depth <- 0;
  t.peak <- 0;
  t.events <- 0;
  let used = t.bank.slots.used in
  if used > t.n then restride t (max used (2 * t.n))

let matched t j = t.count.(j) > 0

let iter_matched t f =
  for i = 0 to t.hits_len - 1 do
    f t.hits.(i)
  done

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
