module Event = Treekit.Event
module Axis = Treekit.Axis
module Q = Cqtree.Query

type axis = Child | Descendant | Following

type chain = { first : string option; steps : (axis * string option) list }

let max_positions = 62

let length c = 1 + List.length c.steps

(* ------------------------------------------------------------------ *)
(* Recognition *)

exception Not_chain

(* A forward-normalised CQ is a chain when its binary atoms form one
   directed path x0 → x1 → … → xk over child, descendant and following
   through every variable, and each variable carries at most one label
   test ([True] tests say nothing and are dropped).  The head is then
   on the path, and the query's Boolean value is whether some node
   matches the path's last position. *)
let of_cq q =
  let q = Q.normalize_forward q in
  let label = Hashtbl.create 8 and out = Hashtbl.create 8 and into = Hashtbl.create 8 in
  let edge axis x y =
    if Hashtbl.mem out x || Hashtbl.mem into y then raise Not_chain;
    Hashtbl.add out x (axis, y);
    Hashtbl.add into y ()
  in
  let atom = function
    | Q.U (Q.True, _) -> ()
    | Q.U (Q.Lab l, x) ->
      if Hashtbl.mem label x then raise Not_chain;
      Hashtbl.add label x l
    | Q.A (Axis.Child, x, y) -> edge Child x y
    | Q.A (Axis.Descendant, x, y) -> edge Descendant x y
    | Q.A (Axis.Following, x, y) -> edge Following x y
    | Q.U _ | Q.A _ -> raise Not_chain
  in
  let vars = Q.vars q in
  match List.iter atom (List.sort_uniq compare q.Q.atoms) with
  | exception Not_chain -> None
  | () -> (
    match List.filter (fun x -> not (Hashtbl.mem into x)) vars with
    | [ x0 ] when List.length vars <= max_positions ->
      (* in-degrees are at most 1 and the source's is 0, so the walk
         from the source ends; it covers every variable iff no other
         variable sits on a cycle of its own *)
      let rec walk x acc =
        match Hashtbl.find_opt out x with
        | None -> List.rev acc
        | Some (axis, y) -> walk y ((axis, Hashtbl.find_opt label y) :: acc)
      in
      let steps = walk x0 [] in
      if List.length steps + 1 = List.length vars then Some { first = Hashtbl.find_opt label x0; steps }
      else None
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* The compiled half *)

(* Each chain owns a slot of [slots].  Its positions are bits 0 … k;
   per slot, [child_in], [desc_in] and [fol_in] hold the positions
   entered by that axis, [last] the bit of position k and [wild] the
   positions without a label test.  The slot is filed under each label
   it tests, valued with the positions carrying it, and, when it has
   unlabeled positions, under key 0, valued with [wild]. *)
type bank = {
  slots : Bank_slots.t;
  mutable child_in : int array;
  mutable desc_in : int array;
  mutable fol_in : int array;
  mutable last : int array;  (* 0 = free slot *)
  mutable wild : int array;
}

let bank () =
  {
    slots = Bank_slots.create ();
    child_in = [||];
    desc_in = [||];
    fol_in = [||];
    last = [||];
    wild = [||];
  }

let extend a len =
  let b = Array.make len 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let add b c =
  if length c > max_positions then invalid_arg "Chain_matcher: chain too long";
  let tests = Hashtbl.create 4 and wild = ref 0 in
  let test i = function
    | None -> wild := !wild lor (1 lsl i)
    | Some l ->
      let id = Bank_slots.intern b.slots l in
      Hashtbl.replace tests id (Option.value (Hashtbl.find_opt tests id) ~default:0 lor (1 lsl i))
  in
  test 0 c.first;
  let into = [| 0; 0; 0 |] in
  List.iteri
    (fun i (axis, l) ->
      let a = match axis with Child -> 0 | Descendant -> 1 | Following -> 2 in
      into.(a) <- into.(a) lor (1 lsl (i + 1));
      test (i + 1) l)
    c.steps;
  let keys = Hashtbl.fold (fun id mask acc -> (id, mask) :: acc) tests [] in
  let keys = if !wild <> 0 then (0, !wild) :: keys else keys in
  let slot = Bank_slots.add b.slots (Array.of_list keys) in
  if slot = Array.length b.last then begin
    let cap = max 8 (2 * slot) in
    b.child_in <- extend b.child_in cap;
    b.desc_in <- extend b.desc_in cap;
    b.fol_in <- extend b.fol_in cap;
    b.last <- extend b.last cap;
    b.wild <- extend b.wild cap
  end;
  b.child_in.(slot) <- into.(0);
  b.desc_in.(slot) <- into.(1);
  b.fol_in.(slot) <- into.(2);
  b.last.(slot) <- 1 lsl (length c - 1);
  b.wild.(slot) <- !wild;
  slot

let remove b slot =
  if slot < 0 || slot >= b.slots.used || b.last.(slot) = 0 then
    invalid_arg "Chain_matcher.remove: free slot";
  Bank_slots.remove b.slots slot;
  b.last.(slot) <- 0

let live b = b.slots.live

(* ------------------------------------------------------------------ *)
(* The per-document half *)

(* Per chain, a stack of the open nodes where some position matched,
   kept in depth-major [cap × n] arrays (n the slot stride): the entry
   at [d * n + j] holds the positions matched at the open node of depth
   d ([mask]), their OR with every entry below ([cum]) and the depth of
   the entry below ([below], -1 at the bottom); [top.(j)] is the depth
   of the top entry.  Row d of [rows] lists the chains with an entry at
   depth d, which its [Close] pops.  [fol.(j)] holds the positions
   matched at some closed node.  At an [Open] of depth d, position i of
   chain j matches when its label test passes and position i - 1
   matched at the parent (child: the top entry, if at depth d - 1), at
   some ancestor (descendant: the top entry's [cum]) or at a node
   closed before (following: [fol]).  Position 0 needs no predecessor;
   the last position fires the chain. *)
type t = {
  bank : bank;
  mutable n : int;
  mutable cap : int;
  mutable mask : int array;
  mutable cum : int array;
  mutable below : int array;
  mutable rows : int array;
  mutable row_len : int array;
  mutable top : int array;
  mutable fol : int array;
  mutable touched : int array;  (* the chains with a nonzero [fol] *)
  mutable touched_len : int;
  mutable stamp : int array;  (* per slot: the last [Open] that evaluated it *)
  mutable opens : int;
  mutable fired_at : int array;  (* per slot: the document it fired in *)
  mutable fired : int array;
  mutable fired_len : int;
  mutable doc : int;
  mutable depth : int;
}

(* fresh arrays for a stride of [n] slots; stamps restart at zero while
   [opens] and [doc] keep counting upward from 1, so no stale stamp can
   collide *)
let restride t n =
  t.n <- n;
  t.mask <- Array.make (t.cap * n) 0;
  t.cum <- Array.make (t.cap * n) 0;
  t.below <- Array.make (t.cap * n) 0;
  t.rows <- Array.make (t.cap * n) 0;
  t.row_len <- Array.make t.cap 0;
  t.top <- Array.make n (-1);
  t.fol <- Array.make n 0;
  t.touched <- Array.make n 0;
  t.stamp <- Array.make n 0;
  t.fired_at <- Array.make n 0;
  t.fired <- Array.make n 0

let pass bank =
  let t =
    {
      bank; n = 0; cap = 16; mask = [||]; cum = [||]; below = [||]; rows = [||]; row_len = [||];
      top = [||]; fol = [||]; touched = [||]; touched_len = 0; stamp = [||]; opens = 0;
      fired_at = [||]; fired = [||]; fired_len = 0; doc = 1; depth = 0;
    }
  in
  restride t bank.slots.used;
  t

let grow t =
  let cap = 2 * t.cap in
  t.mask <- extend t.mask (cap * t.n);
  t.cum <- extend t.cum (cap * t.n);
  t.below <- extend t.below (cap * t.n);
  t.rows <- extend t.rows (cap * t.n);
  t.row_len <- extend t.row_len cap;
  t.cap <- cap

(* chain [j] at the [Open] of a depth-[d] node whose label passes the
   tests of positions [cand] *)
let step t d j cand =
  if t.fired_at.(j) <> t.doc then begin
    let b = t.bank and n = t.n in
    let top = t.top.(j) in
    let parent = if top >= 0 && top = d - 1 then t.mask.((top * n) + j) else 0 in
    let anc = if top >= 0 then t.cum.((top * n) + j) else 0 in
    let reach =
      1
      lor ((parent lsl 1) land b.child_in.(j))
      lor ((anc lsl 1) land b.desc_in.(j))
      lor ((t.fol.(j) lsl 1) land b.fol_in.(j))
    in
    let m = cand land reach in
    if m <> 0 then begin
      let f = (d * n) + j in
      t.mask.(f) <- m;
      t.cum.(f) <- m lor anc;
      t.below.(f) <- top;
      t.top.(j) <- d;
      t.rows.((d * n) + t.row_len.(d)) <- j;
      t.row_len.(d) <- t.row_len.(d) + 1;
      if m land b.last.(j) <> 0 then begin
        t.fired_at.(j) <- t.doc;
        t.fired.(t.fired_len) <- j;
        t.fired_len <- t.fired_len + 1
      end
    end
  end

let open_ t d label =
  t.opens <- t.opens + 1;
  let b = t.bank in
  let s = b.slots in
  let keys = Array.length s.len in
  let l = match Bank_slots.Labels.find s.labels label with id -> id | exception Not_found -> 0 in
  if l > 0 && l < keys then begin
    let js = s.members.(l) and ms = s.values.(l) in
    for i = 0 to s.len.(l) - 1 do
      let j = js.(i) in
      t.stamp.(j) <- t.opens;
      step t d j (ms.(i) lor b.wild.(j))
    done
  end;
  if keys > 0 then begin
    let js = s.members.(0) and ms = s.values.(0) in
    for i = 0 to s.len.(0) - 1 do
      let j = js.(i) in
      if t.stamp.(j) <> t.opens then step t d j ms.(i)
    done
  end

(* pop the entries of depth [d]; a position that a following atom
   leaves from now holds at every later [Open] *)
let close t d =
  let b = t.bank and row = d * t.n in
  for i = 0 to t.row_len.(d) - 1 do
    let j = t.rows.(row + i) in
    let f = row + j in
    let m = t.mask.(f) land (b.fol_in.(j) lsr 1) in
    if m <> 0 then begin
      if t.fol.(j) = 0 then begin
        t.touched.(t.touched_len) <- j;
        t.touched_len <- t.touched_len + 1
      end;
      t.fol.(j) <- t.fol.(j) lor m
    end;
    t.top.(j) <- t.below.(f)
  done;
  t.row_len.(d) <- 0

let push t ev =
  match ev with
  | Event.Open { label; _ } ->
    let d = t.depth in
    if d = t.cap then grow t;
    t.depth <- d + 1;
    if t.bank.slots.live > 0 then open_ t d label
  | Event.Close _ ->
    if t.depth = 0 then invalid_arg "Chain_matcher: unbalanced events";
    t.depth <- t.depth - 1;
    close t t.depth

(* Forget the document; make room for slots added since the last
   reset.  A complete document leaves every stack empty; a truncated
   one leaves the entries of its still-open nodes, listed in their
   rows. *)
let reset t =
  for d = 0 to t.depth - 1 do
    let row = d * t.n in
    for i = 0 to t.row_len.(d) - 1 do
      t.top.(t.rows.(row + i)) <- -1
    done;
    t.row_len.(d) <- 0
  done;
  for i = 0 to t.touched_len - 1 do
    t.fol.(t.touched.(i)) <- 0
  done;
  t.touched_len <- 0;
  t.fired_len <- 0;
  t.doc <- t.doc + 1;
  t.depth <- 0;
  let used = t.bank.slots.used in
  if used > t.n then restride t (max used (2 * t.n))

let matched t j = t.fired_at.(j) = t.doc

let iter_matched t f =
  for i = 0 to t.fired_len - 1 do
    f t.fired.(i)
  done
