module Event = Treekit.Event
module Nodeset = Treekit.Nodeset

type stats = { matches : int; peak_depth : int; events : int }

let c_events = Obs.Counter.make "sax_events"

let c_peak = Obs.Counter.make "stream_peak_depth"

type frame = { exact : int; acc : int }
(* [exact] bit i: the length-i pattern prefix is matched with step i at
   this node; [acc] bit i: matched at some ancestor-or-self.  Bit 0 is the
   empty prefix and is set exactly at the root, which anchors the pattern:
   a leading / extends bit 0 of [exact] (children of the root), a leading
   // extends bit 0 of [acc] (strict descendants of the root).  [closed]
   bit i: matched at a node that has closed, which a [Following] step
   extends; it is set at that node's [Close], never at its [Open], so a
   node's own descendants do not follow it. *)

type state = {
  steps : Path_pattern.step array;
  mutable stack : frame list;
  mutable closed : int;
  mutable depth : int;
  mutable peak : int;
  mutable matches : int;
  mutable events : int;
  full : int;  (* the bit meaning "whole pattern matched" *)
  on_match : int -> unit;
}

let make pattern ~on_match =
  let steps = Array.of_list pattern in
  let k = Array.length steps in
  if k = 0 then invalid_arg "Path_matcher: empty pattern";
  if k > 61 then invalid_arg "Path_matcher: pattern too long (max 61 steps)";
  {
    steps;
    stack = [];
    closed = 0;
    depth = 0;
    peak = 0;
    matches = 0;
    events = 0;
    full = 1 lsl k;
    on_match;
  }

let push_event st ev =
  st.events <- st.events + 1;
  Obs.Counter.incr c_events;
  match ev with
  | Event.Open { node; label; _ } ->
    let frame =
      match st.stack with
      | [] -> { exact = 1; acc = 1 } (* the root anchors the pattern *)
      | parent :: _ ->
        let exact = ref 0 in
        Array.iteri
          (fun i0 (s : Path_pattern.step) ->
            let i = i0 + 1 in
            let label_ok = match s.label with None -> true | Some l -> l = label in
            let from =
              match s.edge with
              | Path_pattern.Child -> parent.exact
              | Path_pattern.Descendant -> parent.acc
              | Path_pattern.Following -> st.closed
            in
            if label_ok && from land (1 lsl (i - 1)) <> 0 then
              exact := !exact lor (1 lsl i))
          st.steps;
        { exact = !exact; acc = parent.acc lor !exact }
    in
    if frame.exact land st.full <> 0 then begin
      st.matches <- st.matches + 1;
      st.on_match node
    end;
    st.stack <- frame :: st.stack;
    st.depth <- st.depth + 1;
    if st.depth > st.peak then begin
      st.peak <- st.depth;
      Obs.Counter.record_max c_peak st.peak
    end
  | Event.Close _ -> (
    match st.stack with
    | [] -> invalid_arg "Path_matcher: unbalanced events"
    | frame :: rest ->
      st.closed <- st.closed lor frame.exact;
      st.stack <- rest;
      st.depth <- st.depth - 1)

let stats_of st = { matches = st.matches; peak_depth = st.peak; events = st.events }

(* reusable interface: one matcher allocation amortised over many
   documents (the standing-query index pools these per pass) *)
type t = state

let create pattern ~on_match = make pattern ~on_match

let reset st =
  st.stack <- [];
  st.closed <- 0;
  st.depth <- 0;
  st.peak <- 0;
  st.matches <- 0;
  st.events <- 0

let push = push_event

let stats = stats_of

let feed pattern =
  let st = make pattern ~on_match:(fun _ -> ()) in
  ((fun ev -> push_event st ev), fun () -> stats_of st)

let run tree pattern ~on_match =
  let st = make pattern ~on_match in
  Event.iter tree (push_event st);
  stats_of st

let select tree pattern =
  let out = Nodeset.create (Treekit.Tree.size tree) in
  let (_ : stats) = run tree pattern ~on_match:(Nodeset.add out) in
  out

exception Found

let matches tree pattern =
  let st = make pattern ~on_match:(fun _ -> raise Found) in
  try
    Event.iter tree (push_event st);
    false
  with Found -> true
