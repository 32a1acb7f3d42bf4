module Event = Treekit.Event
module P = Streamq.Path_pattern
module Labels = Hashtbl.Make (String)

(* Labelled [Child] and [Descendant] transitions, in one open-addressed
   table from a key packing (state, label, edge) to the target state.
   Linear probing, and removal by backward shift, so a probe never
   meets a tombstone.  It grows only in [add], between documents. *)
type table = { mutable keys : int array; mutable targets : int array; mutable size : int }

let key s label ~desc = (s lsl 32) lor (label lsl 1) lor desc

let home keys k = ((k * 0x9E3779B97F4A7C1) lsr 17) land (Array.length keys - 1)

(* the slot holding [k], or the empty slot that ends its probe run *)
let probe keys k =
  let mask = Array.length keys - 1 in
  let i = ref (home keys k) in
  while keys.(!i) <> k && keys.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  !i

let find tb k =
  let i = probe tb.keys k in
  if tb.keys.(i) = k then tb.targets.(i) else -1

let rec insert tb k target =
  if 2 * (tb.size + 1) > Array.length tb.keys then begin
    let keys = tb.keys and targets = tb.targets in
    tb.keys <- Array.make (2 * Array.length keys) (-1);
    tb.targets <- Array.make (2 * Array.length keys) 0;
    tb.size <- 0;
    Array.iteri (fun i k -> if k >= 0 then insert tb k targets.(i)) keys
  end;
  let i = probe tb.keys k in
  tb.keys.(i) <- k;
  tb.targets.(i) <- target;
  tb.size <- tb.size + 1

(* empty [k]'s slot, then walk the rest of its run: a member may move
   back into the hole unless its home lies cyclically after the hole *)
let remove tb k =
  let keys = tb.keys and targets = tb.targets in
  let mask = Array.length keys - 1 in
  let hole = ref (probe keys k) in
  let j = ref ((!hole + 1) land mask) in
  while keys.(!j) >= 0 do
    if (!j - home keys keys.(!j)) land mask >= (!j - !hole) land mask then begin
      keys.(!hole) <- keys.(!j);
      targets.(!hole) <- targets.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- -1;
  tb.size <- tb.size - 1

(* One NFA state per distinct live spine prefix; its targets are unique
   per (edge, label test), which is what makes the structure a
   prefix-sharing trie.  A state remembers the transition that enters
   it, so that freeing it can unlink it.  Labels are interned from 1;
   label 0 is the wildcard. *)
type state = {
  mutable parent : int;  (* -1 for a start state *)
  mutable edge : P.edge;  (* of the transition from [parent] *)
  mutable label : int;
  mutable paths : int;  (* registered paths through the state *)
  mutable terminals : int list;  (* handles fired when the state is reached *)
  mutable out : int;  (* transitions leaving it, of every kind *)
  mutable child_out : int;  (* labelled [Child] ones, in the table *)
  mutable desc_out : int;  (* labelled [Descendant] ones, in the table *)
  mutable child_wild : int;  (* -1 when absent *)
  mutable desc_wild : int;
  mutable fol_wild : int;
  mutable fol : (int * int) list;  (* labelled [Following] ones: (label, target) *)
}

let fresh_state () =
  {
    parent = -1; edge = P.Child; label = 0; paths = 0; terminals = []; out = 0; child_out = 0;
    desc_out = 0; child_wild = -1; desc_wild = -1; fol_wild = -1; fol = [];
  }

type start = Root | Document

(* State 0 is the [Root] start and is never freed; [document] is the
   [Document] start while a spine leaves it. *)
type t = {
  mutable states : state array;
  mutable used : int;  (* ids handed out: every state is below it *)
  mutable free : int list;
  mutable live : int;
  mutable document : int;  (* -1 when absent *)
  mutable following : int;  (* [Following] transitions: a pass files each at most once a document *)
  trans : table;
  labels : int Labels.t;
}

let create () =
  {
    states = Array.init 8 (fun _ -> fresh_state ());
    used = 1;
    free = [];
    live = 1;
    document = -1;
    following = 0;
    trans = { keys = Array.make 64 (-1); targets = Array.make 64 0; size = 0 };
    labels = Labels.create 16;
  }

let states t = t.live

let intern t l =
  match Labels.find_opt t.labels l with
  | Some id -> id
  | None ->
    let id = Labels.length t.labels + 1 in
    Labels.add t.labels l id;
    id

let new_state t ~parent edge label =
  let id =
    match t.free with
    | s :: rest ->
      t.free <- rest;
      s
    | [] ->
      if t.used = Array.length t.states then begin
        let old = t.states in
        t.states <- Array.init (2 * t.used) (fun i -> if i < t.used then old.(i) else fresh_state ())
      end;
      t.used <- t.used + 1;
      t.used - 1
  in
  let st = t.states.(id) in
  st.parent <- parent;
  st.edge <- edge;
  st.label <- label;
  t.live <- t.live + 1;
  id

let step_target t from (s : P.step) =
  let st = t.states.(from) in
  let l = match s.label with Some l -> intern t l | None -> 0 in
  let existing =
    match s.edge with
    | P.Child when l > 0 -> find t.trans (key from l ~desc:0)
    | P.Descendant when l > 0 -> find t.trans (key from l ~desc:1)
    | P.Following when l > 0 -> Option.value (List.assoc_opt l st.fol) ~default:(-1)
    | P.Child -> st.child_wild
    | P.Descendant -> st.desc_wild
    | P.Following -> st.fol_wild
  in
  if existing >= 0 then existing
  else begin
    let target = new_state t ~parent:from s.edge l in
    st.out <- st.out + 1;
    (match s.edge with
    | P.Child when l > 0 ->
      insert t.trans (key from l ~desc:0) target;
      st.child_out <- st.child_out + 1
    | P.Descendant when l > 0 ->
      insert t.trans (key from l ~desc:1) target;
      st.desc_out <- st.desc_out + 1
    | P.Child -> st.child_wild <- target
    | P.Descendant -> st.desc_wild <- target
    | P.Following ->
      t.following <- t.following + 1;
      if l > 0 then st.fol <- (l, target) :: st.fol else st.fol_wild <- target);
    target
  end

let add t start pattern ~handle =
  if pattern = [] then invalid_arg "Subscribe.Trie.add: empty pattern";
  let from =
    match start with
    | Root -> 0
    | Document ->
      if t.document < 0 then t.document <- new_state t ~parent:(-1) P.Descendant 0;
      t.document
  in
  let terminal = List.fold_left (step_target t) from pattern in
  let rec count s =
    if s >= 0 then begin
      let st = t.states.(s) in
      st.paths <- st.paths + 1;
      count st.parent
    end
  in
  count terminal;
  let st = t.states.(terminal) in
  st.terminals <- handle :: st.terminals;
  terminal

(* unlink a state that no registered path passes through any more (so
   nothing leaves it) and hand its id to the next [new_state] *)
let free t s =
  let st = t.states.(s) in
  (if st.parent < 0 then t.document <- -1
   else
     let p = t.states.(st.parent) in
     p.out <- p.out - 1;
     match st.edge with
     | P.Child when st.label > 0 ->
       remove t.trans (key st.parent st.label ~desc:0);
       p.child_out <- p.child_out - 1
     | P.Descendant when st.label > 0 ->
       remove t.trans (key st.parent st.label ~desc:1);
       p.desc_out <- p.desc_out - 1
     | P.Child -> p.child_wild <- -1
     | P.Descendant -> p.desc_wild <- -1
     | P.Following ->
       t.following <- t.following - 1;
       if st.label > 0 then p.fol <- List.filter (fun (_, x) -> x <> s) p.fol
       else p.fol_wild <- -1);
  st.parent <- -1;
  t.free <- s :: t.free;
  t.live <- t.live - 1

let detach t ~state ~handle =
  let st = t.states.(state) in
  if not (List.mem handle st.terminals) then invalid_arg "Subscribe.Trie.detach: handle not attached";
  st.terminals <- List.filter (fun h -> h <> handle) st.terminals;
  let rec release s =
    if s >= 0 then begin
      let st = t.states.(s) in
      let parent = st.parent in
      st.paths <- st.paths - 1;
      if st.paths = 0 && s <> 0 then free t s;
      release parent
    end
  in
  release state

(* ------------------------------------------------------------------ *)
(* Matching pass *)

(* Pooled per-pass working state, reusable across documents and across
   trie changes.  Level 0 is the document node, where the [Document]
   start matches; level d + 1 is the open node of depth d.  A level's
   frame is a segment of [stack] from [base.(level)]: the states matched
   exactly at its node that have a transition to take (a state with none
   only counts and fires).  [live] stacks the states with [Descendant]
   transitions matched at an open node, each once, from where its
   outermost such node's level began ([live_base]); [Close] pops the
   level's segment of both.  The closed set is per document and
   monotone: at the [Close] of a node, each state of its frame with
   [Following] transitions that has not yet joined files them, by label,
   in the [fol_*] lists that [Open] reads (label 0: the wildcard ones).
   Stamps ([mark] per [Open], [fired_at] and [closed_at] per document)
   avoid O(states) clearing. *)
type pass = {
  trie : t;
  mutable cap : int;
  mutable mark : int array;
  mutable opens : int;
  mutable in_live : int array;  (* 1 while on [live] *)
  mutable live : int array;
  mutable live_len : int;
  mutable live_base : int array;
  mutable stack : int array;
  mutable top : int;
  mutable base : int array;
  mutable depth : int;
  mutable fired_at : int array;
  mutable fired : int array;
  mutable fired_len : int;
  mutable closed_at : int array;
  mutable fol_head : int array;  (* per label: the last filed transition, -1 when none *)
  mutable fol_target : int array;
  mutable fol_next : int array;
  mutable fol_label : int array;
  mutable fol_len : int;
  mutable doc : int;
  mutable active_work : int;
}

let extend a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* size the per-state and per-transition arrays to the trie; fresh
   stamp arrays start at zero while [opens] and [doc] keep counting
   upward, so no stale stamp can collide *)
let ensure p =
  let t = p.trie in
  if p.cap < t.used then begin
    let cap = max t.used (2 * p.cap) in
    p.cap <- cap;
    p.mark <- Array.make cap 0;
    p.in_live <- Array.make cap 0;
    p.live <- Array.make cap 0;
    p.fired_at <- Array.make cap 0;
    p.fired <- Array.make cap 0;
    p.closed_at <- Array.make cap 0
  end;
  if Array.length p.fol_target < t.following then begin
    let n = max t.following (2 * Array.length p.fol_target) in
    p.fol_target <- Array.make n 0;
    p.fol_next <- Array.make n 0;
    p.fol_label <- Array.make n 0
  end;
  let labels = Labels.length t.labels in
  if t.following > 0 && Array.length p.fol_head <= labels then
    p.fol_head <- Array.make (max (labels + 1) (2 * Array.length p.fol_head)) (-1)

let has_desc st = st.desc_out > 0 || st.desc_wild >= 0

let make_live p s =
  if p.in_live.(s) = 0 then begin
    p.in_live.(s) <- 1;
    p.live.(p.live_len) <- s;
    p.live_len <- p.live_len + 1
  end

let unlive p from =
  for i = from to p.live_len - 1 do
    p.in_live.(p.live.(i)) <- 0
  done;
  p.live_len <- from

let begin_doc p =
  unlive p 0;
  for i = 0 to p.fol_len - 1 do
    p.fol_head.(p.fol_label.(i)) <- -1
  done;
  p.fol_len <- 0;
  ensure p;
  p.fired_len <- 0;
  p.doc <- p.doc + 1;
  p.active_work <- 0;
  p.depth <- 0;
  p.top <- 0;
  p.base.(0) <- 0;
  let d = p.trie.document in
  if d >= 0 then begin
    p.stack.(0) <- d;
    p.top <- 1;
    if has_desc p.trie.states.(d) then make_live p d
  end

let pass trie =
  let p =
    {
      trie; cap = 0; mark = [||]; opens = 0; in_live = [||]; live = [||]; live_len = 0;
      live_base = Array.make 16 0; stack = Array.make 64 0; top = 0; base = Array.make 16 0;
      depth = 0; fired_at = [||]; fired = [||]; fired_len = 0; closed_at = [||]; fol_head = [||];
      fol_target = [||]; fol_next = [||]; fol_label = [||]; fol_len = 0; doc = 0; active_work = 0;
    }
  in
  begin_doc p;
  p

(* state [s] matched at the node now opening: count it once, fire it
   once a document, and put it on the frame if it has a transition *)
let reach p s =
  if p.mark.(s) <> p.opens then begin
    p.mark.(s) <- p.opens;
    p.active_work <- p.active_work + 1;
    let st = p.trie.states.(s) in
    if st.terminals <> [] && p.fired_at.(s) <> p.doc then begin
      p.fired_at.(s) <- p.doc;
      p.fired.(p.fired_len) <- s;
      p.fired_len <- p.fired_len + 1
    end;
    if st.out > 0 then begin
      if p.top = Array.length p.stack then p.stack <- extend p.stack 0;
      p.stack.(p.top) <- s;
      p.top <- p.top + 1
    end
  end

let rec follow p i =
  if i >= 0 then begin
    reach p p.fol_target.(i);
    follow p p.fol_next.(i)
  end

let file p label target =
  let i = p.fol_len in
  p.fol_target.(i) <- target;
  p.fol_label.(i) <- label;
  p.fol_next.(i) <- p.fol_head.(label);
  p.fol_head.(label) <- i;
  p.fol_len <- i + 1

let rec file_all p = function
  | [] -> ()
  | (label, target) :: rest ->
    file p label target;
    file_all p rest

let open_ p label =
  let t = p.trie in
  let states = t.states and trans = t.trans in
  let l = match Labels.find t.labels label with id -> id | exception Not_found -> 0 in
  p.opens <- p.opens + 1;
  let d = p.depth in
  if d + 2 >= Array.length p.base then begin
    p.base <- extend p.base 0;
    p.live_base <- extend p.live_base 0
  end;
  let start = p.top in
  (* the root element matches the [Root] start *)
  if d = 0 then reach p 0;
  for i = p.base.(d) to start - 1 do
    let s = p.stack.(i) in
    let st = states.(s) in
    if l > 0 && st.child_out > 0 then begin
      let target = find trans (key s l ~desc:0) in
      if target >= 0 then reach p target
    end;
    if st.child_wild >= 0 then reach p st.child_wild
  done;
  for i = 0 to p.live_len - 1 do
    let s = p.live.(i) in
    let st = states.(s) in
    if l > 0 && st.desc_out > 0 then begin
      let target = find trans (key s l ~desc:1) in
      if target >= 0 then reach p target
    end;
    if st.desc_wild >= 0 then reach p st.desc_wild
  done;
  if p.fol_len > 0 then begin
    if l > 0 then follow p p.fol_head.(l);
    follow p p.fol_head.(0)
  end;
  p.base.(d + 1) <- start;
  p.live_base.(d + 1) <- p.live_len;
  for i = start to p.top - 1 do
    let s = p.stack.(i) in
    if has_desc states.(s) then make_live p s
  done;
  p.depth <- d + 1

(* the node of level [depth] closes: the states of its frame that lead
   somewhere by [Following] join the closed set, then its frame and the
   live states it added go *)
let close p =
  let d = p.depth in
  if d = 0 then invalid_arg "Subscribe.Trie.push: unbalanced events";
  let states = p.trie.states in
  for i = p.base.(d) to p.top - 1 do
    let s = p.stack.(i) in
    let st = states.(s) in
    if (st.fol <> [] || st.fol_wild >= 0) && p.closed_at.(s) <> p.doc then begin
      p.closed_at.(s) <- p.doc;
      file_all p st.fol;
      if st.fol_wild >= 0 then file p 0 st.fol_wild
    end
  done;
  p.top <- p.base.(d);
  unlive p p.live_base.(d);
  p.depth <- d - 1

let push p = function
  | Event.Open { label; _ } -> open_ p label
  | Event.Close _ -> close p

let iter_fired p f =
  for i = 0 to p.fired_len - 1 do
    List.iter f p.trie.states.(p.fired.(i)).terminals
  done

let doc_active_work p = p.active_work
