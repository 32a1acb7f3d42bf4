(* Observability: tracing spans, named counters and serialisable reports.

   The module is dependency-free (OCaml stdlib only) and near-zero-cost
   when disabled: every counter bump and span entry first reads the global
   [on] flag, so a disabled run pays one load and one branch per probe.
   Instrumented libraries create their counters at module-initialisation
   time with [Counter.make]; the registry deduplicates by name so the same
   logical counter can be referenced from several modules. *)

let on = ref false

let enabled () = !on

let set_enabled b = on := b

(* [Sys.time] (processor time) is the only clock the stdlib offers; the
   executables that link unix install [Unix.gettimeofday] at startup so
   span durations are wall-clock there. *)
let clock : (unit -> float) ref = ref Sys.time

let set_clock f = clock := f

let now () = !clock ()

(* Typed span/profile attributes: the sizes and identifiers a reader needs
   to interpret a measurement (|D|, |Q|, strategy, plan fingerprint). *)
type attr = Int of int | Str of string

let attr_to_string = function Int i -> string_of_int i | Str s -> s

(* A scoped-collection result: the counter deltas (and wall time) of one
   labelled region, e.g. a single served request.  See {!Scope}. *)
type profile = {
  profile_label : string;
  profile_attrs : (string * attr) list;
  profile_counters : (string * int) list;  (* deltas, nonzero, sorted *)
  profile_duration : float;  (* seconds *)
}

(* ------------------------------------------------------------------ *)

(* Domain-local counter shards (see {!Shard}): when one is installed in
   the current domain's DLS, counter bumps land in the shard's arrays
   (indexed by each counter's registration index) instead of the shared
   registry cells, so parallel workers never write the same memory.
   Additive bumps ([incr]/[add]) and gauge updates ([record_max]) use
   separate arrays because they merge differently (sum vs max). *)
module Cshard = struct
  type t = { mutable adds : int array; mutable maxes : int array }

  let create () = { adds = [||]; maxes = [||] }

  let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

  let ensure sh i =
    if i >= Array.length sh.adds then begin
      let n = max 16 (max (i + 1) (2 * Array.length sh.adds)) in
      let grow a =
        let b = Array.make n 0 in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      sh.adds <- grow sh.adds;
      sh.maxes <- grow sh.maxes
    end

  let add sh i n =
    ensure sh i;
    sh.adds.(i) <- sh.adds.(i) + n

  let record_max sh i n =
    ensure sh i;
    if n > sh.maxes.(i) then sh.maxes.(i) <- n

  let get_add sh i = if i < Array.length sh.adds then sh.adds.(i) else 0

  let get_max sh i = if i < Array.length sh.maxes then sh.maxes.(i) else 0
end

module Counter = struct
  type t = {
    name : string;
    idx : int;  (* position in the registry, stable for a counter's lifetime *)
    mutable gauge : bool;  (* has ever been fed via record_max *)
    mutable value : int;
  }

  let registry : t list ref = ref []

  let next_idx = ref 0

  let make name =
    match List.find_opt (fun c -> c.name = name) !registry with
    | Some c -> c
    | None ->
      let c = { name; idx = !next_idx; gauge = false; value = 0 } in
      Stdlib.incr next_idx;
      registry := c :: !registry;
      c

  let[@inline] incr c =
    if !on then
      match Domain.DLS.get Cshard.key with
      | None -> c.value <- c.value + 1
      | Some sh -> Cshard.add sh c.idx 1

  let[@inline] add c n =
    if !on then
      match Domain.DLS.get Cshard.key with
      | None -> c.value <- c.value + n
      | Some sh -> Cshard.add sh c.idx n

  let[@inline] record_max c n =
    if !on then begin
      if not c.gauge then c.gauge <- true;
      match Domain.DLS.get Cshard.key with
      | None -> if n > c.value then c.value <- n
      | Some sh -> Cshard.record_max sh c.idx n
    end

  let value c = c.value

  (* shard-aware read: the global cell plus this domain's pending shard
     contribution — what {!Scope} snapshots inside a worker, so deltas
     computed there see the worker's own work (the global cells are
     stable while a parallel section runs: only merges mutate them, and
     merges happen on the publishing domain after the workers finish) *)
  let read c =
    match Domain.DLS.get Cshard.key with
    | None -> c.value
    | Some sh ->
      if c.gauge then max c.value (Cshard.get_max sh c.idx)
      else c.value + Cshard.get_add sh c.idx

  let name c = c.name

  let reset_all () = List.iter (fun c -> c.value <- 0) !registry

  (* nonzero counters only, sorted by name: a disabled (or idle) run
     snapshots to [] *)
  let snapshot () =
    !registry
    |> List.filter_map (fun c -> if c.value <> 0 then Some (c.name, c.value) else None)
    |> List.sort compare
end

(* ------------------------------------------------------------------ *)

type histogram_summary = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  max : float;
}

(* Log-bucketed histograms: bucket i covers [base·ratio^i, base·ratio^(i+1))
   with base = 1 µs and ratio = √2, so 56 buckets span 1 µs to ~4.5 min.
   A quantile is reported as the geometric midpoint of its bucket, giving
   a bounded relative error of ratio^½ ≈ 19%.  Deliberately NOT gated on
   the [on] flag (see the .mli). *)
module Histogram = struct
  let nbuckets = 56

  let base = 1e-6

  let log_ratio = 0.5 *. log 2.0 (* log √2 *)

  type t = {
    hist_name : string;
    registered : bool; (* listed in reports, redirected to shard twins *)
    buckets : int array;
    mutable count : int;
    mutable sum : float;
    mutable max : float;
  }

  let registry : t list ref = ref []

  let detached ~registered name =
    {
      hist_name = name;
      registered;
      buckets = Array.make nbuckets 0;
      count = 0;
      sum = 0.0;
      max = 0.0;
    }

  let make name =
    match List.find_opt (fun h -> h.hist_name = name) !registry with
    | Some h -> h
    | None ->
      let h = detached ~registered:true name in
      registry := h :: !registry;
      h

  let create () = detached ~registered:false ""

  (* Domain-local histogram shard (see {!Shard}): name → unregistered
     twin.  While installed, observations into any registered histogram
     are redirected to this domain's private twin of the same name. *)
  let shard_key : (string, t) Hashtbl.t option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let twin tbl h =
    match Hashtbl.find_opt tbl h.hist_name with
    | Some d -> d
    | None ->
      let d = detached ~registered:false h.hist_name in
      Hashtbl.add tbl h.hist_name d;
      d

  let bucket_of v =
    if v <= base then 0
    else min (nbuckets - 1) (int_of_float (log (v /. base) /. log_ratio))

  let observe h v =
    let h =
      if not h.registered then h
      else match Domain.DLS.get shard_key with None -> h | Some tbl -> twin tbl h
    in
    let v = Float.max 0.0 v in
    h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v > h.max then h.max <- v

  (* Total merge: every histogram shares the one fixed bucket layout, so
     merging is bucket-wise addition — no interpolation, no failure case.
     [count]/[sum] add, [max] takes the max; [src] is left untouched. *)
  let merge ~into src =
    for i = 0 to nbuckets - 1 do
      into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
    done;
    into.count <- into.count + src.count;
    into.sum <- into.sum +. src.sum;
    if src.max > into.max then into.max <- src.max

  let count h = h.count

  let mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

  let max_value h = h.max

  (* midpoint of bucket i in log space; bucket 0 also holds sub-µs samples,
     so report its lower edge *)
  let bucket_value i =
    if i = 0 then base else base *. exp ((float_of_int i +. 0.5) *. log_ratio)

  let percentile h q =
    if h.count = 0 then 0.0
    else begin
      let target =
        let t = int_of_float (ceil (q *. float_of_int h.count)) in
        max 1 (min h.count t)
      in
      let rec go i cum =
        if i >= nbuckets then h.max
        else
          let cum = cum + h.buckets.(i) in
          if cum >= target then Float.min (bucket_value i) h.max else go (i + 1) cum
      in
      go 0 0
    end

  let summary h =
    {
      count = h.count;
      mean = mean h;
      p50 = percentile h 0.50;
      p90 = percentile h 0.90;
      p95 = percentile h 0.95;
      p99 = percentile h 0.99;
      max = h.max;
    }

  let name h = h.hist_name

  let clear h =
    Array.fill h.buckets 0 nbuckets 0;
    h.count <- 0;
    h.sum <- 0.0;
    h.max <- 0.0

  let reset_all () = List.iter clear !registry

  let snapshot () =
    !registry
    |> List.filter_map (fun h ->
           if h.count > 0 then Some (h.hist_name, summary h) else None)
    |> List.sort compare
end

(* ------------------------------------------------------------------ *)

module Span = struct
  (* A closed span.  It is built once, when the span closes (its
     children closed before it, so they are frozen already), and never
     changes afterwards: the live forest, every captured report and the
     streaming sink share it. *)
  type t = {
    name : string;
    start : float;  (** clock reading at entry (seconds) *)
    duration : float;
    attrs : (string * attr) list;
    children : t list;
  }

  (* An open span: only these are ever mutated, and only while they sit
     on their domain's open stack. *)
  type node = {
    label : string;
    t0 : float;
    mutable rev_attrs : (string * attr) list;
    mutable rev_children : t list;  (** closed children, newest first *)
  }

  (* Span bookkeeping is per-domain: each domain has its own open-span
     stack and completed-root list, so workers never contend on the main
     domain's trace.  On the main domain this is the same state the
     pre-domains code kept in two global refs. *)
  type state = { mutable roots : t list (* reversed *); mutable stack : node list }

  let state_key : state Domain.DLS.key =
    Domain.DLS.new_key (fun () -> { roots = []; stack = [] })

  let state () = Domain.DLS.get state_key

  (* Streaming sinks (the Chrome trace writer) observe each span the
     moment it completes — children strictly before their parents.  The
     hook must never break the instrumented program, so its exceptions
     are swallowed.  It fires only on the domain that installed it and
     only outside a {!Shard}: worker spans are replayed through it when
     their shard merges, so a task the installing domain ran itself is
     not streamed twice. *)
  let completion_hook : (t -> unit) option ref = ref None

  let hook_domain : Domain.id ref = ref (Domain.self ())

  let set_completion_hook h =
    hook_domain := Domain.self ();
    completion_hook := h

  let fire_hook span =
    match !completion_hook with
    | Some f when Domain.self () = !hook_domain && Domain.DLS.get Cshard.key = None ->
      (try f span with _ -> ())
    | _ -> ()

  (* Replay a merged worker span through the streaming hook, children
     strictly before parents (the order the sink would have seen live). *)
  let rec replay_hook span =
    List.iter replay_hook span.children;
    fire_hook span

  let reset () =
    let st = state () in
    st.roots <- [];
    st.stack <- []

  (* close [node]: freeze it and hand it to its parent (or the roots) *)
  let attach node duration =
    let st = state () in
    match st.stack with
    | top :: rest when top == node ->
      st.stack <- rest;
      let span =
        { name = node.label; start = node.t0; duration;
          attrs = List.rev node.rev_attrs; children = List.rev node.rev_children }
      in
      (match rest with
      | parent :: _ -> parent.rev_children <- span :: parent.rev_children
      | [] -> st.roots <- span :: st.roots);
      fire_hook span
    | _ -> () (* unbalanced exit (e.g. reset inside a span): drop the span *)

  let with_ ?(attrs = []) name f =
    if not !on then f ()
    else begin
      let t0 = !clock () in
      let node = { label = name; t0; rev_attrs = List.rev attrs; rev_children = [] } in
      let st = state () in
      st.stack <- node :: st.stack;
      Fun.protect ~finally:(fun () -> attach node (!clock () -. t0)) f
    end

  (* Attach a late-bound attribute (e.g. a result size only known at the
     end) to the innermost open span.  No-op when disabled or when no
     span is open, so callers need no guards. *)
  let set_attr key value =
    if !on then
      match (state ()).stack with
      | top :: _ -> top.rev_attrs <- (key, value) :: List.remove_assoc key top.rev_attrs
      | [] -> ()
end

(* ------------------------------------------------------------------ *)

(* Scoped collection: attribute counter increments (and wall time) to a
   labelled region rather than the global blob.  A scope snapshots every
   registered counter on entry and diffs on exit, so nested/interleaved
   regions each see exactly the work performed inside them (a nested
   scope's work is also visible to its enclosing scope, as expected of a
   delta).  Cost is O(#registered counters) per scope — paid only when
   observability is enabled. *)
module Scope = struct
  (* per-domain, like span state: a worker's scopes collect into its own
     list, drained into the active {!Shard} when the task ends *)
  let captured_key : profile list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let captured () = Domain.DLS.get captured_key  (* reversed *)

  let reset () = captured () := []

  (* [Counter.read], not [.value]: inside a worker's shard the snapshot
     must include the shard contribution or every delta would be zero.
     Indexed by [Counter.idx], the layout [Cshard] uses. *)
  let snapshot_values () =
    let a = Array.make !Counter.next_idx 0 in
    List.iter
      (fun (c : Counter.t) -> a.(c.Counter.idx) <- Counter.read c)
      !Counter.registry;
    a

  let deltas before =
    !Counter.registry
    |> List.filter_map (fun (c : Counter.t) ->
           (* a counter registered inside the scope started at 0 *)
           let i = c.Counter.idx in
           let b = if i < Array.length before then before.(i) else 0 in
           let d = Counter.read c - b in
           if d <> 0 then Some (c.Counter.name, d) else None)
    |> List.sort compare

  let collect ?(attrs = []) label f =
    if not !on then
      let x = f () in
      ( x,
        { profile_label = label; profile_attrs = attrs; profile_counters = [];
          profile_duration = 0.0 } )
    else begin
      let before = snapshot_values () in
      let t0 = !clock () in
      let finish () =
        { profile_label = label;
          profile_attrs = attrs;
          profile_counters = deltas before;
          profile_duration = !clock () -. t0 }
      in
      let x = f () in
      (x, finish ())
    end

  (* Like [collect], but keeps the profile in a global list that
     {!Report.capture} picks up (and records it even when [f] raises). *)
  let record ?(attrs = []) label f =
    if not !on then f ()
    else begin
      let before = snapshot_values () in
      let t0 = !clock () in
      let finish () =
        let cap = captured () in
        cap :=
          { profile_label = label;
            profile_attrs = attrs;
            profile_counters = deltas before;
            profile_duration = !clock () -. t0 }
          :: !cap
      in
      Fun.protect ~finally:finish f
    end

  let recorded () = List.rev !(captured ())

  (* Append an externally-collected profile (from {!collect}) to the
     recorded list — lets a caller look at a profile (e.g. to feed a
     telemetry store) and still have {!Report.capture} pick it up. *)
  let note p =
    if !on then begin
      let cap = captured () in
      cap := p :: !cap
    end
end

(* ------------------------------------------------------------------ *)

(* Domain-local observability shards.  A parallel executor creates one
   shard per task, runs the task under {!Shard.run} (on whatever domain
   picks it up), and — once the task has completed and its results are
   back on the publishing domain — folds the shard into the global state
   with {!Shard.merge}.  While a shard is installed:

   - counter bumps go to the shard's per-index arrays (sum-merged;
     [record_max] gauges max-merged);
   - histogram observations go to private unregistered twins (merged
     bucket-wise with {!Histogram.merge});
   - spans and scope profiles collect in the running domain's own DLS
     state and are drained into the shard when [run] returns.

   Merging in task order on one domain makes the merged totals, profile
   order and span order deterministic regardless of how tasks were
   scheduled across domains.  [run] touches no shared mutable state, so
   it is also safe (and useful in tests) on the main domain. *)
module Shard = struct
  type t = {
    counters : Cshard.t;
    hists : (string, Histogram.t) Hashtbl.t;
    mutable roots : Span.t list;  (* completed worker spans, oldest first *)
    mutable profiles : profile list;  (* oldest first *)
  }

  let create () =
    { counters = Cshard.create (); hists = Hashtbl.create 8; roots = []; profiles = [] }

  let run sh f =
    let st = Span.state () in
    let saved_roots = st.Span.roots and saved_stack = st.Span.stack in
    st.Span.roots <- [];
    st.Span.stack <- [];
    let cap = Scope.captured () in
    let saved_cap = !cap in
    cap := [];
    let saved_csh = Domain.DLS.get Cshard.key in
    let saved_hsh = Domain.DLS.get Histogram.shard_key in
    Domain.DLS.set Cshard.key (Some sh.counters);
    Domain.DLS.set Histogram.shard_key (Some sh.hists);
    Fun.protect
      ~finally:(fun () ->
        sh.roots <- sh.roots @ List.rev st.Span.roots;
        sh.profiles <- sh.profiles @ List.rev !cap;
        st.Span.roots <- saved_roots;
        st.Span.stack <- saved_stack;
        cap := saved_cap;
        Domain.DLS.set Cshard.key saved_csh;
        Domain.DLS.set Histogram.shard_key saved_hsh)
      f

  let merge sh =
    (* counters: additive deltas sum into the global cells, gauge maxes
       max into them.  O(#registered counters) per shard. *)
    List.iter
      (fun (c : Counter.t) ->
        let d = Cshard.get_add sh.counters c.Counter.idx in
        if d <> 0 then c.Counter.value <- c.Counter.value + d;
        let m = Cshard.get_max sh.counters c.Counter.idx in
        if m > c.Counter.value then c.Counter.value <- m)
      !Counter.registry;
    Hashtbl.iter
      (fun name twin -> Histogram.merge ~into:(Histogram.make name) twin)
      sh.hists;
    (* spans: graft under the innermost span open on this domain (the
       executor's enclosing span, if any), replaying the streaming hook
       children-before-parents so exported traces include worker spans *)
    let st = Span.state () in
    List.iter
      (fun n ->
        Span.replay_hook n;
        match st.Span.stack with
        | parent :: _ -> parent.Span.rev_children <- n :: parent.Span.rev_children
        | [] -> st.Span.roots <- n :: st.Span.roots)
      sh.roots;
    let cap = Scope.captured () in
    List.iter (fun p -> cap := p :: !cap) sh.profiles
end

let reset () =
  Counter.reset_all ();
  Histogram.reset_all ();
  Span.reset ();
  Scope.reset ()

let with_enabled b f =
  let saved = !on in
  on := b;
  Fun.protect ~finally:(fun () -> on := saved) f

(* ------------------------------------------------------------------ *)
(* A hand-rolled JSON value type: just enough to serialise reports and
   parse them back (round-trip tested), keeping the library
   dependency-free. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let number_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.9g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_to_string f)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (Str k);
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    write buf j;
    Buffer.contents buf

  exception Parse_failure of { pos : int; msg : string }

  (* recursive-descent parser for the subset above *)
  let of_string input =
    let n = String.length input in
    let pos = ref 0 in
    let fail msg = raise (Parse_failure { pos = !pos; msg }) in
    let peek () = if !pos < n then Some input.[!pos] else None in
    let skip_ws () =
      while !pos < n && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        incr pos
      done
    in
    let expect c =
      if !pos < n && input.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %c" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub input !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match input.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match input.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub input (!pos + 1) 4 in
              let code =
                try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
              in
              (* BMP code points only; enough for our own output *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end;
              pos := !pos + 4
            | c -> fail (Printf.sprintf "bad escape \\%c" c));
            incr pos;
            go ()
          | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      if peek () = Some '-' then incr pos;
      while
        !pos < n
        && (match input.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false)
      do
        incr pos
      done;
      match float_of_string_opt (String.sub input start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let items = ref [ member () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            items := member () :: !items;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !items)
        end
      | Some _ -> Num (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None

  (* The one file-writing helper every CLI sink goes through ([--stats-json],
     [--trace-out], [attest --out], …): ["-"] means
     stdout, anything else is opened, written and closed under
     [Fun.protect] so the fd is released even when the write raises. *)
  let write_raw path contents =
    if path = "-" then print_string contents
    else
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc contents)

  let write_file path j = write_raw path (to_string j ^ "\n")
end

(* ------------------------------------------------------------------ *)

module Report = struct
  type span = Span.t = {
    name : string;
    start : float;  (** seconds, absolute clock reading; 0 when unknown *)
    duration : float;
    attrs : (string * attr) list;
    children : span list;
  }

  type t = {
    spans : span list;
    counters : (string * int) list;
    histograms : (string * histogram_summary) list;
    profiles : profile list;
  }

  let empty = { spans = []; counters = []; histograms = []; profiles = [] }

  let is_empty r =
    r.spans = [] && r.counters = [] && r.histograms = [] && r.profiles = []

  (* spans are frozen when they close, so capturing the forest is one
     list reversal: the report shares the closed spans with the live
     forest *)
  let capture () =
    {
      spans = List.rev (Span.state ()).Span.roots;
      counters = Counter.snapshot ();
      histograms = Histogram.snapshot ();
      profiles = Scope.recorded ();
    }

  let span_count r =
    let rec count s = 1 + List.fold_left (fun acc c -> acc + count c) 0 s.children in
    List.fold_left (fun acc s -> acc + count s) 0 r.spans

  (* ---- text ---- *)

  let attrs_to_text attrs =
    if attrs = [] then ""
    else
      "  {"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (attr_to_string v)) attrs)
      ^ "}"

  let to_text r =
    let buf = Buffer.create 256 in
    let rec span indent s =
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s %10.3f ms%s\n" indent (max 1 (32 - String.length indent))
           s.name (s.duration *. 1000.0) (attrs_to_text s.attrs));
      List.iter (span (indent ^ "  ")) s.children
    in
    List.iter (span "") r.spans;
    if r.counters <> [] then begin
      Buffer.add_string buf "counters:\n";
      List.iter
        (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-30s %d\n" name v))
        r.counters
    end;
    if r.histograms <> [] then begin
      Buffer.add_string buf "histograms:\n";
      List.iter
        (fun (name, h) ->
          Buffer.add_string buf
            (Printf.sprintf
               "  %-30s n=%d p50=%.3fms p90=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n"
               name h.count (h.p50 *. 1000.0) (h.p90 *. 1000.0) (h.p95 *. 1000.0)
               (h.p99 *. 1000.0) (h.max *. 1000.0)))
        r.histograms
    end;
    if r.profiles <> [] then begin
      Buffer.add_string buf "profiles:\n";
      List.iter
        (fun p ->
          Buffer.add_string buf
            (Printf.sprintf "  %-30s %10.3f ms%s\n" p.profile_label
               (p.profile_duration *. 1000.0) (attrs_to_text p.profile_attrs));
          List.iter
            (fun (name, v) ->
              Buffer.add_string buf (Printf.sprintf "    %-30s %d\n" name v))
            p.profile_counters)
        r.profiles
    end;
    Buffer.contents buf

  (* ---- json ---- *)

  let json_of_attr = function
    | Int i -> Json.Num (float_of_int i)
    | Str s -> Json.Str s

  let json_of_attrs attrs =
    Json.Obj (List.map (fun (k, v) -> (k, json_of_attr v)) attrs)

  (* [start_ms] and [attrs] are omitted when absent so reports written
     before this PR still round-trip unchanged *)
  let rec json_of_span s =
    Json.Obj
      ([ ("name", Json.Str s.name) ]
      @ (if s.start = 0.0 then [] else [ ("start_ms", Json.Num (s.start *. 1000.0)) ])
      @ [ ("duration_ms", Json.Num (s.duration *. 1000.0)) ]
      @ (if s.attrs = [] then [] else [ ("attrs", json_of_attrs s.attrs) ])
      @ [ ("children", Json.Arr (List.map json_of_span s.children)) ])

  let json_of_histogram (h : histogram_summary) =
    Json.Obj
      [
        ("count", Json.Num (float_of_int h.count));
        ("mean_ms", Json.Num (h.mean *. 1000.0));
        ("p50_ms", Json.Num (h.p50 *. 1000.0));
        ("p90_ms", Json.Num (h.p90 *. 1000.0));
        ("p95_ms", Json.Num (h.p95 *. 1000.0));
        ("p99_ms", Json.Num (h.p99 *. 1000.0));
        ("max_ms", Json.Num (h.max *. 1000.0));
      ]

  let json_of_profile p =
    Json.Obj
      ([ ("label", Json.Str p.profile_label) ]
      @ (if p.profile_attrs = [] then [] else [ ("attrs", json_of_attrs p.profile_attrs) ])
      @ [
          ( "counters",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.Num (float_of_int v)))
                 p.profile_counters) );
          ("duration_ms", Json.Num (p.profile_duration *. 1000.0));
        ])

  let to_json_value r =
    Json.Obj
      ([
         ("spans", Json.Arr (List.map json_of_span r.spans));
         ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) r.counters));
       ]
      @ (* omitted when empty, so pre-serving reports round-trip unchanged *)
      (if r.histograms = [] then []
       else
         [
           ( "histograms",
             Json.Obj (List.map (fun (k, h) -> (k, json_of_histogram h)) r.histograms) );
         ])
      @
      if r.profiles = [] then []
      else [ ("profiles", Json.Arr (List.map json_of_profile r.profiles)) ])

  let to_json r = Json.to_string (to_json_value r)

  exception Malformed of string

  let attr_of_json = function
    | Json.Num f -> Int (int_of_float f)
    | Json.Str s -> Str s
    | _ -> raise (Malformed "attr value")

  let attrs_of_json j =
    match Json.member "attrs" j with
    | None -> []
    | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, attr_of_json v)) kvs
    | Some _ -> raise (Malformed "attrs")

  let rec span_of_json j =
    let get key =
      match Json.member key j with
      | Some v -> v
      | None -> raise (Malformed ("span missing field " ^ key))
    in
    let name = match get "name" with Json.Str s -> s | _ -> raise (Malformed "span name") in
    let start =
      match Json.member "start_ms" j with
      | None -> 0.0
      | Some (Json.Num f) -> f /. 1000.0
      | Some _ -> raise (Malformed "span start_ms")
    in
    let duration =
      match get "duration_ms" with
      | Json.Num f -> f /. 1000.0
      | _ -> raise (Malformed "span duration_ms")
    in
    let children =
      match get "children" with
      | Json.Arr xs -> List.map span_of_json xs
      | _ -> raise (Malformed "span children")
    in
    { name; start; duration; attrs = attrs_of_json j; children }

  let of_json_value j =
    let spans =
      match Json.member "spans" j with
      | Some (Json.Arr xs) -> List.map span_of_json xs
      | _ -> raise (Malformed "report missing spans")
    in
    let counters =
      match Json.member "counters" j with
      | Some (Json.Obj kvs) ->
        List.map
          (fun (k, v) ->
            match v with
            | Json.Num f -> (k, int_of_float f)
            | _ -> raise (Malformed "counter value"))
          kvs
      | _ -> raise (Malformed "report missing counters")
    in
    let histogram_of_json h =
      let num key =
        match Json.member key h with
        | Some (Json.Num f) -> f
        | _ -> raise (Malformed ("histogram missing field " ^ key))
      in
      {
        count = int_of_float (num "count");
        mean = num "mean_ms" /. 1000.0;
        p50 = num "p50_ms" /. 1000.0;
        p90 = num "p90_ms" /. 1000.0;
        p95 = num "p95_ms" /. 1000.0;
        p99 = num "p99_ms" /. 1000.0;
        max = num "max_ms" /. 1000.0;
      }
    in
    let histograms =
      (* absent in reports written before the serving layer existed *)
      match Json.member "histograms" j with
      | None -> []
      | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, histogram_of_json v)) kvs
      | Some _ -> raise (Malformed "report histograms")
    in
    let profile_of_json p =
      let label =
        match Json.member "label" p with
        | Some (Json.Str s) -> s
        | _ -> raise (Malformed "profile label")
      in
      let counters =
        match Json.member "counters" p with
        | Some (Json.Obj kvs) ->
          List.map
            (fun (k, v) ->
              match v with
              | Json.Num f -> (k, int_of_float f)
              | _ -> raise (Malformed "profile counter value"))
            kvs
        | _ -> raise (Malformed "profile counters")
      in
      let duration =
        match Json.member "duration_ms" p with
        | Some (Json.Num f) -> f /. 1000.0
        | _ -> raise (Malformed "profile duration_ms")
      in
      {
        profile_label = label;
        profile_attrs = attrs_of_json p;
        profile_counters = counters;
        profile_duration = duration;
      }
    in
    let profiles =
      (* absent in reports written before scoped collection existed *)
      match Json.member "profiles" j with
      | None -> []
      | Some (Json.Arr ps) -> List.map profile_of_json ps
      | Some _ -> raise (Malformed "report profiles")
    in
    { spans; counters; histograms; profiles }

  let of_json s =
    match Json.of_string s with
    | j -> of_json_value j
    | exception Json.Parse_failure { pos; msg } ->
      raise (Malformed (Printf.sprintf "JSON syntax at %d: %s" pos msg))
end

(* ------------------------------------------------------------------ *)

(* Chrome trace-event export: one complete ("ph":"X") event per span,
   loadable in Perfetto / chrome://tracing.  Timestamps are microseconds
   relative to the earliest span start, so the trace starts at t=0
   regardless of the clock's epoch. *)
module Trace = struct
  let event ~t0 ~name ~start ~duration ~attrs =
    Json.Obj
      ([
         ("name", Json.Str name);
         ("ph", Json.Str "X");
         ("ts", Json.Num (Float.max 0.0 (start -. t0) *. 1e6));
         ("dur", Json.Num (duration *. 1e6));
         ("pid", Json.Num 1.0);
         ("tid", Json.Num 1.0);
       ]
      @
      if attrs = [] then []
      else [ ("args", Report.json_of_attrs attrs) ])

  let wrap events =
    Json.Obj
      [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ]

  (* earliest nonzero start in the span forest; 0 for pre-PR-5 reports *)
  let earliest_start spans =
    let rec go acc (s : Report.span) =
      let acc =
        if s.Report.start > 0.0 && (acc = 0.0 || s.Report.start < acc) then s.Report.start
        else acc
      in
      List.fold_left go acc s.Report.children
    in
    List.fold_left go 0.0 spans

  let of_report (r : Report.t) =
    let t0 = earliest_start r.Report.spans in
    let events = ref [] in
    let rec emit (s : Report.span) =
      (* parents first, so the enclosing slice appears before its
         children; Perfetto nests by (pid, tid, ts, dur) containment *)
      events :=
        event ~t0 ~name:s.Report.name ~start:s.Report.start ~duration:s.Report.duration
          ~attrs:s.Report.attrs
        :: !events;
      List.iter emit s.Report.children
    in
    List.iter emit r.Report.spans;
    wrap (List.rev !events)

  let event_count = function
    | Json.Obj kvs -> (
      match List.assoc_opt "traceEvents" kvs with
      | Some (Json.Arr evs) -> List.length evs
      | _ -> 0)
    | _ -> 0

  (* Streaming sink: subscribes to span completion, so a long run can be
     exported without retaining anything beyond the event list.  Spans
     complete children-before-parents; the trace-event format does not
     care about event order. *)
  type sink = { mutable events : Json.t list (* reversed *); mutable t0 : float }

  let start_stream () =
    let s = { events = []; t0 = 0.0 } in
    Span.set_completion_hook
      (Some
        (fun (n : Report.span) ->
          if s.t0 = 0.0 || n.Report.start < s.t0 then s.t0 <- n.Report.start;
          s.events <-
            (* t0 is normalised at [stop_stream]; record absolute µs here *)
            event ~t0:0.0 ~name:n.Report.name ~start:n.Report.start
              ~duration:n.Report.duration ~attrs:n.Report.attrs
            :: s.events));
    s

  let stop_stream s =
    Span.set_completion_hook None;
    let shift = s.t0 *. 1e6 in
    let rebase = function
      | Json.Obj kvs ->
        Json.Obj
          (List.map
             (function
               | "ts", Json.Num ts -> ("ts", Json.Num (Float.max 0.0 (ts -. shift)))
               | kv -> kv)
             kvs)
      | j -> j
    in
    wrap (List.rev_map rebase s.events)
end

(* ------------------------------------------------------------------ *)

(* OpenMetrics text exposition (counters and histogram summaries), for
   scraping the serving layer.  Rendered from a captured report so the
   exposition and the JSON stats describe the same instant. *)
module Openmetrics = struct
  let sanitize name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name

  let float_str f = Json.number_to_string f

  type summary = {
    metric : string;
    labels : (string * string) list;
    quantiles : (string * float) list;
    sum : float;
    count : int;
  }

  let escape_label v =
    let buf = Buffer.create (String.length v + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let render_labels labels =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label v)) labels)

  (* # HELP text shares the label-value escapes minus the quote (help is
     not quoted in the exposition format). *)
  let escape_help v =
    let buf = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let family buf m kind help =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" m (escape_help help));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" m kind)

  type gauge = {
    gname : string;
    ghelp : string;
    glabels : (string * string) list;
    gvalue : float;
  }

  let gauge ?(labels = []) ?help name v =
    let help =
      match help with Some h -> h | None -> Printf.sprintf "Gauge %s." name
    in
    { gname = name; ghelp = help; glabels = labels; gvalue = v }

  let render_gauges buf gauges =
    List.iter
      (fun g ->
        let m = "treequery_" ^ sanitize g.gname in
        family buf m "gauge" g.ghelp;
        let ls = render_labels g.glabels in
        let braces = if ls = "" then "" else "{" ^ ls ^ "}" in
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" m braces (float_str g.gvalue)))
      gauges

  (* labelled series (the telemetry layer's per-fingerprint latencies and
     pick counts); one # TYPE line per metric name, then a series per
     label set.  A series with quantiles is a latency summary, one
     without is a counter. *)
  let render_extra buf extras =
    let typed = Hashtbl.create 8 in
    List.iter
      (fun s ->
        let counter = s.quantiles = [] in
        let m = "treequery_" ^ sanitize s.metric ^ if counter then "" else "_seconds" in
        if not (Hashtbl.mem typed m) then begin
          Hashtbl.add typed m ();
          if counter then family buf m "counter" (Printf.sprintf "Per-series count %s." s.metric)
          else
            family buf m "summary"
              (Printf.sprintf "Per-series latency summary %s (seconds)." s.metric)
        end;
        let ls = render_labels s.labels in
        let braces = if ls = "" then "" else "{" ^ ls ^ "}" in
        if counter then Buffer.add_string buf (Printf.sprintf "%s_total%s %d\n" m braces s.count)
        else begin
          List.iter
            (fun (q, v) ->
              let sep = if ls = "" then "" else "," in
              Buffer.add_string buf
                (Printf.sprintf "%s{%s%squantile=\"%s\"} %s\n" m ls sep q (float_str v)))
            s.quantiles;
          Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" m braces s.count);
          Buffer.add_string buf (Printf.sprintf "%s_sum%s %s\n" m braces (float_str s.sum))
        end)
      extras

  let render ?(gauges = []) ?(extra = []) (r : Report.t) =
    let buf = Buffer.create 1024 in
    render_gauges buf gauges;
    List.iter
      (fun (name, v) ->
        let m = "treequery_" ^ sanitize name in
        family buf m "counter"
          (Printf.sprintf "Cumulative count of %s events." name);
        Buffer.add_string buf (Printf.sprintf "%s_total %d\n" m v))
      r.Report.counters;
    List.iter
      (fun (name, (h : histogram_summary)) ->
        let m = "treequery_" ^ sanitize name ^ "_seconds" in
        family buf m "summary"
          (Printf.sprintf "Latency summary %s (seconds)." name);
        List.iter
          (fun (q, v) ->
            Buffer.add_string buf
              (Printf.sprintf "%s{quantile=\"%s\"} %s\n" m q (float_str v)))
          [ ("0.5", h.p50); ("0.9", h.p90); ("0.95", h.p95); ("0.99", h.p99) ];
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" m h.count);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %s\n" m (float_str (h.mean *. float_of_int h.count))))
      r.Report.histograms;
    render_extra buf extra;
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)

(* Declarative complexity attestation: each bound names a counter that
   witnesses a paper claim and the input-size term it must scale against,
   with the claimed log-log slope.  `treequery attest` sweeps each bound's
   term, fits the observed slope and fails when it exceeds the claim
   beyond tolerance — turning the paper's complexity map (Fig. 7) into a
   CI regression gate. *)
module Bound = struct
  type t = {
    id : string;  (** stable identifier, e.g. ["datalog-grounding"] *)
    claim : string;  (** the theorem/figure being attested *)
    counter : string;  (** the witnessing counter *)
    term : string;  (** the input-size term swept, e.g. ["|D|"] *)
    exponent : float;  (** claimed log-log slope of counter vs term *)
  }

  let registry : t list ref = ref []

  let register ~id ~claim ~counter ~term ~exponent =
    match List.find_opt (fun b -> b.id = id) !registry with
    | Some existing -> existing
    | None ->
      let b = { id; claim; counter; term; exponent } in
      registry := b :: !registry;
      b

  let all () = List.rev !registry

  let find id = List.find_opt (fun b -> b.id = id) !registry

  (* Least-squares slope of log y against log x.  Points with a
     nonpositive coordinate are skipped (a counter that never fires is
     within any bound); fewer than two usable points fit slope 0. *)
  let fit_slope points =
    let pts =
      List.filter_map
        (fun (x, y) -> if x > 0.0 && y > 0.0 then Some (log x, log y) else None)
        points
    in
    match pts with
    | [] | [ _ ] -> 0.0
    | _ ->
      let n = float_of_int (List.length pts) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
      let denom = (n *. sxx) -. (sx *. sx) in
      if Float.abs denom < 1e-12 then 0.0 else ((n *. sxy) -. (sx *. sy)) /. denom
end
