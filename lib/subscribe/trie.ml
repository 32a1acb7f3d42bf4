module Event = Treekit.Event
module P = Streamq.Path_pattern

(* One NFA state per distinct registered spine prefix.  Transitions are
   keyed by (edge, label test); a [Child] edge extends a prefix matched
   exactly at the parent, a [Descendant] edge a prefix matched at any
   ancestor-or-self of the parent — the same frame semantics as
   [Streamq.Path_matcher], with the per-pattern prefix bitmask replaced
   by shared trie states so N patterns cost one merged structure.
   Targets are unique per (state, edge, test), which is what makes the
   structure a prefix-sharing trie. *)
type state = {
  mutable child_lab : (string * int) list;
  mutable child_wild : int;  (* -1 when absent *)
  mutable desc_lab : (string * int) list;
  mutable desc_wild : int;
  mutable terminals : int list;  (* handles fired when this state is reached *)
}

let fresh_state () =
  { child_lab = []; child_wild = -1; desc_lab = []; desc_wild = -1; terminals = [] }

type t = { mutable states : state array; mutable count : int }

let create () = { states = Array.init 8 (fun _ -> fresh_state ()); count = 1 }

let states t = t.count

let new_state t =
  if t.count = Array.length t.states then begin
    let bigger = Array.init (2 * t.count) (fun _ -> fresh_state ()) in
    Array.blit t.states 0 bigger 0 t.count;
    t.states <- bigger
  end;
  let id = t.count in
  t.count <- t.count + 1;
  id

let step_target t from (s : P.step) =
  let st = t.states.(from) in
  let existing =
    match (s.edge, s.label) with
    | P.Child, Some l -> List.assoc_opt l st.child_lab
    | P.Child, None -> if st.child_wild >= 0 then Some st.child_wild else None
    | P.Descendant, Some l -> List.assoc_opt l st.desc_lab
    | P.Descendant, None -> if st.desc_wild >= 0 then Some st.desc_wild else None
  in
  match existing with
  | Some target -> target
  | None ->
    let target = new_state t in
    let st = t.states.(from) in
    (* re-read: [new_state] may have swapped the array *)
    (match (s.edge, s.label) with
    | P.Child, Some l -> st.child_lab <- (l, target) :: st.child_lab
    | P.Child, None -> st.child_wild <- target
    | P.Descendant, Some l -> st.desc_lab <- (l, target) :: st.desc_lab
    | P.Descendant, None -> st.desc_wild <- target);
    target

let add t pattern =
  if pattern = [] then invalid_arg "Subscribe.Trie.add: empty pattern";
  List.fold_left (fun from s -> step_target t from s) 0 pattern

let attach t ~state ~handle =
  let st = t.states.(state) in
  st.terminals <- handle :: st.terminals

let detach t ~state ~handle =
  let st = t.states.(state) in
  st.terminals <- List.filter (fun h -> h <> handle) st.terminals

(* ------------------------------------------------------------------ *)
(* Matching pass *)

(* Pooled per-pass working state, reusable across documents and across
   trie growth.  [acc_count.(s)] counts the open ancestors-or-self where
   [s] is exactly matched; the states with a positive count form the
   dense [live] array (swap-removal via [live_pos]), which is what
   [Descendant] transitions extend from.  Stamp arrays ([mark] per Open
   event, [fired_mark] per document) avoid O(states) clearing. *)
type pass = {
  trie : t;
  mutable cap : int;
  mutable acc_count : int array;
  mutable live : int array;
  mutable live_pos : int array;
  mutable live_len : int;
  mutable mark : int array;
  mutable fired_mark : int array;
  mutable gen : int;
  mutable doc : int;
  mutable frames : int list list;
  mutable depth : int;
  mutable fired : int list;
  mutable events : int;
  mutable peak : int;
  mutable active_work : int;
}

let pass trie =
  let cap = trie.count in
  {
    trie;
    cap;
    acc_count = Array.make cap 0;
    live = Array.make cap 0;
    live_pos = Array.make cap (-1);
    live_len = 0;
    mark = Array.make cap 0;
    fired_mark = Array.make cap 0;
    gen = 0;
    doc = 0;
    frames = [];
    depth = 0;
    fired = [];
    events = 0;
    peak = 0;
    active_work = 0;
  }

let ensure p =
  if p.cap < p.trie.count then begin
    let cap = max p.trie.count (2 * p.cap) in
    (* stamps restart at zero in the fresh arrays; [gen]/[doc] keep
       counting upward from their previous values, so no stale stamp can
       collide *)
    p.cap <- cap;
    p.acc_count <- Array.make cap 0;
    p.live <- Array.make cap 0;
    p.live_pos <- Array.make cap (-1);
    p.live_len <- 0;
    p.mark <- Array.make cap 0;
    p.fired_mark <- Array.make cap 0
  end

let begin_doc p =
  ensure p;
  for i = 0 to p.live_len - 1 do
    let s = p.live.(i) in
    p.acc_count.(s) <- 0;
    p.live_pos.(s) <- -1
  done;
  p.live_len <- 0;
  p.frames <- [];
  p.depth <- 0;
  p.fired <- [];
  p.doc <- p.doc + 1;
  p.events <- 0;
  p.peak <- 0;
  p.active_work <- 0

let push p ev =
  p.events <- p.events + 1;
  match ev with
  | Event.Open { label; _ } ->
    p.gen <- p.gen + 1;
    let exact = ref [] in
    let add s =
      if p.mark.(s) <> p.gen then begin
        p.mark.(s) <- p.gen;
        exact := s :: !exact
      end
    in
    (match p.frames with
    | [] -> add 0 (* the root anchors every pattern *)
    | parent :: _ ->
      List.iter
        (fun s ->
          let st = p.trie.states.(s) in
          (match List.assoc_opt label st.child_lab with
          | Some target -> add target
          | None -> ());
          if st.child_wild >= 0 then add st.child_wild)
        parent;
      for i = 0 to p.live_len - 1 do
        let st = p.trie.states.(p.live.(i)) in
        (match List.assoc_opt label st.desc_lab with
        | Some target -> add target
        | None -> ());
        if st.desc_wild >= 0 then add st.desc_wild
      done);
    List.iter
      (fun s ->
        if p.acc_count.(s) = 0 then begin
          p.live_pos.(s) <- p.live_len;
          p.live.(p.live_len) <- s;
          p.live_len <- p.live_len + 1
        end;
        p.acc_count.(s) <- p.acc_count.(s) + 1;
        let terminals = p.trie.states.(s).terminals in
        if terminals <> [] && p.fired_mark.(s) <> p.doc then begin
          p.fired_mark.(s) <- p.doc;
          p.fired <- terminals @ p.fired
        end)
      !exact;
    p.active_work <- p.active_work + List.length !exact;
    p.frames <- !exact :: p.frames;
    p.depth <- p.depth + 1;
    if p.depth > p.peak then p.peak <- p.depth
  | Event.Close _ -> (
    match p.frames with
    | [] -> invalid_arg "Subscribe.Trie.push: unbalanced events"
    | exact :: rest ->
      List.iter
        (fun s ->
          p.acc_count.(s) <- p.acc_count.(s) - 1;
          if p.acc_count.(s) = 0 then begin
            let pos = p.live_pos.(s) in
            let last = p.live.(p.live_len - 1) in
            p.live.(pos) <- last;
            p.live_pos.(last) <- pos;
            p.live_len <- p.live_len - 1;
            p.live_pos.(s) <- -1
          end)
        exact;
      p.frames <- rest;
      p.depth <- p.depth - 1)

let fired p = p.fired

let doc_events p = p.events

let doc_peak_depth p = p.peak

let doc_active_work p = p.active_work
