(* The load every workload runs, and the order statistics its metrics
   are reported with.

   A run is a number of rounds, each a closed segment followed by an
   open one.  On a shared host speed drifts by tens of percent for
   seconds at a time; interleaving the two loads in short rounds spreads
   such a stretch over both, and statistics over rounds can set it
   aside, where one closed phase followed by one open phase could fall
   wholly inside it. *)

let now = Unix.gettimeofday

(* Wait until absolute time [t] by spinning.  A sleeping process leaves
   its core, and the core's caches, to other tenants, and the next op
   then starts as cold as the neighbours left it: on the reference host
   that was up to 30% of an op's latency.  Spinning also dispatches a due
   op within microseconds of its due time. *)
let wait_until t =
  while now () < t do
    Domain.cpu_relax ()
  done

(* Nearest-rank quantile of a sorted array; 0 for an empty one. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a = quantile (sorted a) 0.5

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* The interquartile mean: the mean of the middle half of the values.
   Like the median it sets aside a quarter of the rounds at either end,
   such as those a freeze of the host backed up, and it averages the
   rest instead of picking one, which made runs agree more closely (see
   README.md). *)
let iqm a =
  let n = Array.length a in
  let k = n / 4 in
  mean (Array.sub (sorted a) k (n - (2 * k)))

(* Python's [statistics.quantiles(data, n=4)] (the "exclusive" method),
   so the spreads reported here are the ones that tool computes. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld < 2 then
    let v = if ld = 1 then d.(0) else nan in
    (v, v, v)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((d.(j - 1) *. (4.0 -. delta)) +. (d.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type gc = { minor_words : float; minor_gcs : int; major_gcs : int }

(* On OCaml 5 [quick_stat] sums over all domains; [Gc.minor_words]
   would count only the calling one. *)
let gc () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; minor_gcs = s.Gc.minor_collections; major_gcs = s.Gc.major_collections }

let gc_add a ~since b =
  {
    minor_words = a.minor_words +. b.minor_words -. since.minor_words;
    minor_gcs = a.minor_gcs + b.minor_gcs - since.minor_gcs;
    major_gcs = a.major_gcs + b.major_gcs - since.major_gcs;
  }

let gc_zero = { minor_words = 0.0; minor_gcs = 0; major_gcs = 0 }

(* The major heap's size in words.  On OCaml 5.1 it shrinks again once
   a major cycle has swept its garbage. *)
let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* The heap the inputs hold, once the garbage of making them is gone:
   what the program's own heap is measured above. *)
let heap_baseline () =
  Gc.full_major ();
  heap_words ()

(* A time as measured, and the [Host.scale] of the gauge taken with it. *)
type timed = { raw : float; scale : float }

(* Set up [times] times and keep the last state.  [f] returns a new
   state with its set-up time.  Returns the set-up times, each with the
   scale of the mean of the gauges taken just before and just after it,
   and the last state.  The earlier states are collected before
   returning, so the rounds start from the heap a single set-up
   leaves. *)
let repeat_setup ~times f =
  let rec go n before acc =
    let st, dt = f () in
    let after = Host.sample () in
    let acc = { raw = dt; scale = Host.scale ((before +. after) /. 2.0) } :: acc in
    if n <= 1 then begin
      Gc.full_major ();
      (Array.of_list acc, st)
    end
    else go (n - 1) after acc
  in
  go times (Host.sample ()) []

(* A round is nominally a second long; every run has at least two, so a
   traced run has an untraced round to compare against. *)
let rounds_in seconds = max 2 (int_of_float (Float.round seconds))

type round = {
  closed_ops : int;
  closed_s : float;
  latency : float array;  (** open segment: seconds from due to result; infinity when failed *)
  late : float array;  (** how far past its due time the generator woke for an op *)
  busy : float;  (** seconds spent inside dispatches *)
  span : float;  (** seconds from the segment's start to its last op's return *)
  dispatches : int;
  closed_scale : float;  (** [Host.scale] of the mean of the gauges taken before and after the closed segment *)
  open_scale : float;  (** the same for the open segment *)
}

type run = {
  rounds : round array;
  closed_gc : gc;  (** over the closed segments *)
  all_gc : gc;  (** over whole rounds *)
  heap_peak : int;  (** the largest [heap_words ()] before the first round and after each *)
  gauges : float array;  (** the gauge's seconds, before and after every segment *)
}

(* [rounds] rounds.  Closed segment: [step ()] back to back until it
   has completed [closed_ops] ops (it returns the ops each call
   completed).  Open segment: op [i] of round [r] is due [due r i]
   seconds after the segment starts, whether or not the program is
   ready, for [open_ops] ops; each dispatch hands every op that is due
   (up to [max_group]) to [dispatch first count], with [first] counted
   over the open ops of all rounds, which returns each op's success.  An
   op's latency runs from its due time to the dispatch's return.
   [mid_open ()] is called once a round, when half its open ops have
   been dispatched.  [around r f] runs round [r]'s body [f].  The host
   is gauged before and after every segment, and the heap's size read
   before the first round and after every round. *)
let run ~rounds ~closed_ops ~open_ops ~due ~max_group ?(mid_open = ignore) ?(around = fun _ f -> f ()) ~step
    ~dispatch () =
  let closed_gc = ref gc_zero and all_gc = ref gc_zero in
  let gauges = Array.make ((2 * rounds) + 1) 0.0 in
  let heap_peak = ref (heap_words ()) in
  let one r =
    if r > 0 then heap_peak := max !heap_peak (heap_words ());
    gauges.(2 * r) <- Host.sample ();
    let g0 = gc () in
    let t0 = now () in
    let ops = ref 0 in
    while !ops < closed_ops do
      ops := !ops + step ()
    done;
    let closed_s = now () -. t0 in
    let g1 = gc () in
    closed_gc := gc_add !closed_gc ~since:g0 g1;
    gauges.((2 * r) + 1) <- Host.sample ();
    let latency = Array.make open_ops infinity in
    let late = ref [] and dispatches = ref 0 and busy = ref 0.0 in
    let t0 = now () in
    let i = ref 0 in
    while !i < open_ops do
      let d = t0 +. due r !i in
      if now () < d then begin
        wait_until d;
        late := (now () -. d) :: !late
      end;
      let t = now () -. t0 in
      let j = ref (!i + 1) in
      while !j < open_ops && !j - !i < max_group && due r !j <= t do
        incr j
      done;
      if !i < open_ops / 2 && !j >= open_ops / 2 then mid_open ();
      let ok = dispatch ((r * open_ops) + !i) (!j - !i) in
      incr dispatches;
      let t_done = now () -. t0 in
      busy := !busy +. (t_done -. t);
      for k = !i to !j - 1 do
        if ok.(k - !i) then latency.(k) <- t_done -. due r k
      done;
      i := !j
    done;
    all_gc := gc_add !all_gc ~since:g0 (gc ());
    {
      closed_ops = !ops; closed_s; latency; late = Array.of_list !late; busy = !busy; span = now () -. t0;
      dispatches = !dispatches; closed_scale = nan; open_scale = nan;
    }
  in
  let rs = Array.init rounds (fun r -> around r (fun () -> one r)) in
  heap_peak := max !heap_peak (heap_words ());
  gauges.(2 * rounds) <- Host.sample ();
  let around_segment i = Host.scale ((gauges.(i) +. gauges.(i + 1)) /. 2.0) in
  let rounds =
    Array.mapi
      (fun r rd -> { rd with closed_scale = around_segment (2 * r); open_scale = around_segment ((2 * r) + 1) })
      rs
  in
  { rounds; closed_gc = !closed_gc; all_gc = !all_gc; heap_peak = !heap_peak; gauges }

let closed_rate r = float_of_int r.closed_ops /. Float.max r.closed_s 1e-9

(* Closed-loop throughput: the interquartile mean over rounds of each
   round's rate, on the reference host when [scaled] (the default), as
   measured otherwise. *)
let ops_per_s ?(scaled = true) rounds =
  iqm (Array.map (fun r -> closed_rate r /. if scaled then r.closed_scale else 1.0) rounds)

let describe ~rate (rs : round array) =
  let open_ops = Array.fold_left (fun a r -> a + Array.length r.latency) 0 rs in
  let busy = Array.fold_left (fun a r -> a +. r.busy) 0.0 rs
  and span = Array.fold_left (fun a r -> a +. r.span) 0.0 rs in
  [
    ( "closed",
      Printf.sprintf "%d ops; ops/s per round: %s"
        (Array.fold_left (fun a r -> a + r.closed_ops) 0 rs)
        (String.concat " " (Array.to_list (Array.map (fun r -> Printf.sprintf "%.0f" (closed_rate r)) rs))) );
    (* a busy share near 1 would mean the rate was above what the
       program sustained, and latency was backlog *)
    ( "open",
      Printf.sprintf "%d ops at %g/s in %.2fs, %d dispatches, busy %.0f%%" open_ops rate span
        (Array.fold_left (fun a r -> a + r.dispatches) 0 rs)
        (100.0 *. busy /. Float.max span 1e-9) );
    ( "host",
      let s = sorted (Array.concat (Array.to_list (Array.map (fun r -> [| r.closed_scale; r.open_scale |]) rs))) in
      Printf.sprintf "times scaled to the reference host by %.3f (segments %.3f to %.3f)" (median s) s.(0)
        s.(Array.length s - 1) );
  ]
