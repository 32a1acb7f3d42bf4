(* In-memory spans recorded around the benchmark's calls into each
   layer, for the traced run.

   Spans live in flat growable arrays (no allocation per span beyond
   the arrays' doubling) and are written out only when the run ends.
   A span's self time is its duration minus the part of its interval
   its child spans cover; every [op] span is a root, so the self times
   of an op and its descendants must add up to the op's duration. *)

type kind =
  | Op
  | Treekit_parse
  | Treequery_parse
  | Serve_run
  | Subscribe_register
  | Subscribe_unregister
  | Subscribe_match
  | Opsplane_publish

let name = function
  | Op -> "op"
  | Treekit_parse -> "treekit.parse"
  | Treequery_parse -> "treequery.parse"
  | Serve_run -> "serve.run"
  | Subscribe_register -> "subscribe.register"
  | Subscribe_unregister -> "subscribe.unregister"
  | Subscribe_match -> "subscribe.match"
  | Opsplane_publish -> "opsplane.publish"

type t = {
  mutable on : bool;
  mutable len : int;
  mutable kind : kind array;
  mutable parent : int array;
  mutable id : int array;  (* request or document id *)
  mutable start : float array;
  mutable stop : float array;
  mutable current : int;  (* innermost open span, -1 when none *)
}

let create () =
  let cap = 1024 in
  {
    on = false;
    len = 0;
    kind = Array.make cap Op;
    parent = Array.make cap (-1);
    id = Array.make cap 0;
    start = Array.make cap 0.0;
    stop = Array.make cap 0.0;
    current = -1;
  }

let grow s =
  let cap = 2 * Array.length s.kind in
  let extend a fill = Array.init cap (fun i -> if i < s.len then a.(i) else fill) in
  s.kind <- extend s.kind Op;
  s.parent <- extend s.parent (-1);
  s.id <- extend s.id 0;
  s.start <- extend s.start 0.0;
  s.stop <- extend s.stop 0.0

let with_ s kind ~id f =
  if not s.on then f ()
  else begin
    if s.len = Array.length s.kind then grow s;
    let i = s.len in
    s.len <- i + 1;
    s.kind.(i) <- kind;
    s.parent.(i) <- s.current;
    s.id.(i) <- id;
    let saved = s.current in
    s.current <- i;
    s.start.(i) <- Unix.gettimeofday ();
    let finish () =
      s.stop.(i) <- Unix.gettimeofday ();
      s.current <- saved
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

type totals = { count : int; total : float; self : float }
(** per kind, seconds *)

(* Self time of every span: children run one after another on the
   recording domain, so the covered part of a parent is the sum of its
   children's intervals clipped to the parent's. *)
let self_times s =
  let self = Array.init s.len (fun i -> s.stop.(i) -. s.start.(i)) in
  for j = 0 to s.len - 1 do
    let p = s.parent.(j) in
    if p >= 0 then
      let covered =
        Float.min s.stop.(j) s.stop.(p) -. Float.max s.start.(j) s.start.(p)
      in
      self.(p) <- self.(p) -. Float.max 0.0 covered
  done;
  self

(* Per-kind totals over the spans recorded from index [from] on. *)
let totals ?(from = 0) s =
  let self = self_times s in
  let acc = Hashtbl.create 8 in
  for i = from to s.len - 1 do
    let c = Option.value ~default:{ count = 0; total = 0.0; self = 0.0 } (Hashtbl.find_opt acc s.kind.(i)) in
    Hashtbl.replace acc s.kind.(i)
      {
        count = c.count + 1;
        total = c.total +. (s.stop.(i) -. s.start.(i));
        self = c.self +. self.(i);
      }
  done;
  fun k -> Option.value ~default:{ count = 0; total = 0.0; self = 0.0 } (Hashtbl.find_opt acc k)

(* The largest relative gap, over all [op] spans, between the op's
   duration and the sum of the self times of the op and its
   descendants. *)
let self_sum_error s =
  let self = self_times s in
  let sum = Array.make s.len 0.0 in
  for j = 0 to s.len - 1 do
    let r = ref j in
    while s.parent.(!r) >= 0 do r := s.parent.(!r) done;
    sum.(!r) <- sum.(!r) +. self.(j)
  done;
  let worst = ref 0.0 in
  for i = 0 to s.len - 1 do
    let d = s.stop.(i) -. s.start.(i) in
    if s.kind.(i) = Op && s.parent.(i) < 0 && d > 0.0 then
      worst := Float.max !worst (Float.abs (sum.(i) -. d) /. d)
  done;
  !worst

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the first span. *)
let write_chrome s path =
  let t0 = if s.len = 0 then 0.0 else s.start.(0) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      for i = 0 to s.len - 1 do
        if i > 0 then output_char oc ',';
        Printf.fprintf oc
          "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d}}"
          (name s.kind.(i))
          ((s.start.(i) -. t0) *. 1e6)
          ((s.stop.(i) -. s.start.(i)) *. 1e6)
          s.id.(i)
      done;
      output_string oc "\n]}\n")
