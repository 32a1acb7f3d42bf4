(* What one run of a workload reports, and the measurements every
   workload derives the same way. *)

type t = {
  attempted : int;
  failed : int;
  info : (string * string) list;  (** printed before the metrics *)
  e2e : (string * float) list;  (** empty in a traced run *)
  raw : (string * float) list;  (** [e2e] with times as measured, not scaled *)
  layers : (string * float) list;  (** empty in an untraced run *)
}

(* Times are scaled segment by segment to the reference host's speed
   (see [Host]), unless [scaled] is false.  The p50 pools every open op;
   the p99 is each round's, and the interquartile mean over rounds: the
   shared host now and then freezes for 50–100 ms, which backs up the
   ops behind it, and one such freeze in a run moved the pooled p99 of a
   thousand ops by half.  The heap is the program's: its peak over the
   rounds less [heap_base], the heap that the generated inputs hold. *)
let end_to_end ?(scaled = true) ~setups ~heap_base (m : Loop.run) =
  let k s = if scaled then s else 1.0 in
  let lat r = Array.map (fun l -> k r.Loop.open_scale *. l) r.Loop.latency in
  let pooled = Loop.sorted (Array.concat (Array.to_list (Array.map lat m.Loop.rounds))) in
  let round_p99 = Array.map (fun r -> Loop.quantile (Loop.sorted (lat r)) 0.99) m.Loop.rounds in
  let closed_ops = Array.fold_left (fun a r -> a + r.Loop.closed_ops) 0 m.Loop.rounds in
  [
    ("setup_s", Loop.median (Array.map (fun (t : Loop.timed) -> k t.Loop.scale *. t.Loop.raw) setups));
    ("ops_per_s", Loop.ops_per_s ~scaled m.Loop.rounds);
    ("lat_p50_ms", 1e3 *. Loop.quantile pooled 0.50);
    ("lat_p99_ms", 1e3 *. Loop.iqm round_p99);
    ("minor_words_per_op", m.Loop.closed_gc.Loop.minor_words /. float_of_int (max 1 closed_ops));
    ("peak_heap_mb", float_of_int (m.Loop.heap_peak - heap_base) *. 8.0 /. 1e6);
  ]

(* An untraced run's outcome: its metrics scaled and as measured, and
   the gauge's median time over the rounds. *)
let untraced ~attempted ~failed ~info ~setups ~heap_base m =
  let raw = end_to_end ~scaled:false ~setups ~heap_base m @ [ ("gauge_ms", 1e3 *. Loop.median m.Loop.gauges) ] in
  { attempted; failed; info; e2e = end_to_end ~setups ~heap_base m; raw; layers = [] }

(* The traced run alternates untraced and traced rounds, so that the
   cost of tracing is measured against rounds that ran at the same time.
   [traced r] says which rounds were traced. *)
let traced r = r mod 2 = 1

let split (m : Loop.run) =
  let pick p = Array.of_list (List.filteri (fun r _ -> p r) (Array.to_list m.Loop.rounds)) in
  (pick traced, pick (fun r -> not (traced r)))

(* Per-layer metrics every workload has: the GC and the generator's
   timing over the traced run, what tracing cost, the spans Obs
   retained, and the recorder's own consistency check. *)
let common_layers ~obs_spans ~obs_ops (m : Loop.run) spans =
  let traced_rounds, plain = split m in
  let all_ops =
    Array.fold_left (fun a r -> a + r.Loop.closed_ops + Array.length r.Loop.latency) 0 m.Loop.rounds
  in
  let per_kop n = 1e3 *. float_of_int n /. float_of_int (max 1 all_ops) in
  let late = Loop.sorted (Array.concat (Array.to_list (Array.map (fun r -> r.Loop.late) m.Loop.rounds))) in
  [
    ("runtime.minor_gcs_per_kop", per_kop m.Loop.all_gc.Loop.minor_gcs);
    ("runtime.major_gcs_per_kop", per_kop m.Loop.all_gc.Loop.major_gcs);
    ("loadgen.late_p99_ms", 1e3 *. Loop.quantile late 0.99);
    ("loadgen.late_max_ms", 1e3 *. Loop.quantile late 1.0);
    ("loadgen.trace_overhead_frac", 1.0 -. (Loop.ops_per_s traced_rounds /. Loop.ops_per_s plain));
    ("obs.retained_spans_per_op", float_of_int obs_spans /. float_of_int (max 1 obs_ops));
    ("trace.self_sum_err_max", Spans.self_sum_error spans);
  ]

(* Run one traced round: spans and Obs counters on for its duration,
   and the counters' [(before, after)] snapshots added to [counters]. *)
let traced_round spans counters f =
  let was = Obs.enabled () in
  spans.Spans.on <- true;
  Obs.set_enabled true;
  let c0 = Obs.Counter.snapshot () in
  let x = f () in
  counters := (c0, Obs.Counter.snapshot ()) :: !counters;
  spans.Spans.on <- false;
  Obs.set_enabled was;
  x

(* Obs counter [name]'s movement over the traced rounds' snapshots. *)
let counter_delta deltas name =
  let get l = Option.value ~default:0 (List.assoc_opt name l) in
  List.fold_left (fun acc (before, after) -> acc + get after - get before) 0 deltas

(* Mean seconds per call of [f], over at least [runs] calls and [min_s]
   seconds. *)
let time_per_call ?(runs = 3) ?(min_s = 2e-4) f =
  let t0 = Loop.now () in
  let n = ref 0 in
  while !n < runs || Loop.now () -. t0 < min_s do
    f ();
    incr n
  done;
  (Loop.now () -. t0) /. float_of_int !n

(* The wall time of each stage of a run, for the "stages" line. *)
let stopwatch () =
  let laps = ref [] and last = ref (Loop.now ()) in
  let lap name =
    let t = Loop.now () in
    laps := Printf.sprintf "%s %.1fs" name (t -. !last) :: !laps;
    last := t
  in
  (lap, fun () -> String.concat ", " (List.rev !laps))
