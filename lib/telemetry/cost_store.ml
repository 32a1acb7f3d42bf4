(* Per-(fingerprint × strategy) cost statistics with residual tracking.
   See cost_store.mli. *)

type cell = {
  fingerprint : string;
  strategy : string;
  latency : Obs.Histogram.t; (* unregistered; its count is the cell's served *)
  ewma : Sketch.Ewma.t;
  mutable predicted_total : float;
  mutable observed_total : float;
  mutable max_ratio : float;
  mutable violations : int;
  mutable picks : int; (* optimizer decisions routed to this cell *)
  counters : (string, int) Hashtbl.t; (* cumulative deltas *)
  labels : (string * string) list; (* the exposition labels of its series *)
  mutable exposed : (Obs.Openmetrics.summary * Obs.Openmetrics.summary option) option;
      (* its latency and picks series as last exposed; [None] once
         [observe] or [record_pick] touched the cell since *)
}

module Key_map = Map.Make (struct
  type t = string * string

  let compare = compare
end)

type t = {
  threshold : float;
  clock : unit -> float;
  cells : (string * string, cell) Hashtbl.t; (* per-request lookups *)
  mutable index : cell Key_map.t; (* the same cells in key order *)
  mutable total_violations : int;
}

type summary = {
  fingerprint : string;
  strategy : string;
  served : int;
  latency : Obs.histogram_summary;
  ewma_mean : float;
  ewma_std : float;
  predicted_total : float;
  observed_total : float;
  residual : float;
  max_ratio : float;
  violations : int;
  picks : int;
  counters : (string * int) list;
}

let create ?(threshold = 1.0) ?(clock = Obs.now) () =
  if threshold <= 0.0 then invalid_arg "Cost_store.create: threshold must be > 0";
  {
    threshold;
    clock;
    cells = Hashtbl.create 32;
    index = Key_map.empty;
    total_violations = 0;
  }

let cell t ~fingerprint ~strategy =
  let key = (fingerprint, strategy) in
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
    let c =
      {
        fingerprint;
        strategy;
        latency = Obs.Histogram.create ();
        ewma = Sketch.Ewma.create ~clock:t.clock ();
        predicted_total = 0.0;
        observed_total = 0.0;
        max_ratio = 0.0;
        violations = 0;
        picks = 0;
        counters = Hashtbl.create 16;
        labels = [ ("fingerprint", fingerprint); ("strategy", strategy) ];
        exposed = None;
      }
    in
    Hashtbl.add t.cells key c;
    t.index <- Key_map.add key c t.index;
    c

let observe t ~fingerprint ~strategy ~predicted ~observed ~latency ~counters =
  let c = cell t ~fingerprint ~strategy in
  c.exposed <- None;
  Obs.Histogram.observe c.latency latency;
  Sketch.Ewma.observe c.ewma latency;
  c.predicted_total <- c.predicted_total +. predicted;
  c.observed_total <- c.observed_total +. observed;
  List.iter
    (fun (k, v) ->
      Hashtbl.replace c.counters k
        (v + Option.value ~default:0 (Hashtbl.find_opt c.counters k)))
    counters;
  let ratio = if predicted > 0.0 then observed /. predicted else 0.0 in
  if ratio > c.max_ratio then c.max_ratio <- ratio;
  let violation = predicted > 0.0 && ratio > t.threshold in
  if violation then begin
    c.violations <- c.violations + 1;
    t.total_violations <- t.total_violations + 1
  end;
  violation

let threshold t = t.threshold
let violations t = t.total_violations
let is_empty t = Hashtbl.length t.cells = 0

(* the adaptive optimizer's telemetry hooks: pick counters per cell
   (surfaced in summaries, JSON and the OpenMetrics exposition) and an
   O(1) read of what routing learns from — a cell's observation count
   and latency EWMA *)
let record_pick t ~fingerprint ~strategy =
  let c = cell t ~fingerprint ~strategy in
  c.exposed <- None;
  c.picks <- c.picks + 1

let observations t ~fingerprint ~strategy =
  match Hashtbl.find_opt t.cells (fingerprint, strategy) with
  | Some c -> (Obs.Histogram.count c.latency, Sketch.Ewma.mean c.ewma)
  | None -> (0, 0.0)

let summary_of_cell (c : cell) : summary =
  {
    fingerprint = c.fingerprint;
    strategy = c.strategy;
    served = Obs.Histogram.count c.latency;
    latency = Obs.Histogram.summary c.latency;
    ewma_mean = Sketch.Ewma.mean c.ewma;
    ewma_std = Sketch.Ewma.std c.ewma;
    predicted_total = c.predicted_total;
    observed_total = c.observed_total;
    residual =
      (if c.predicted_total > 0.0 then c.observed_total /. c.predicted_total
       else 0.0);
    max_ratio = c.max_ratio;
    violations = c.violations;
    picks = c.picks;
    counters =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.counters []
      |> List.sort compare;
  }

let summaries t =
  List.rev (Key_map.fold (fun _ c acc -> summary_of_cell c :: acc) t.index [])

let top_by_p99 ?(k = 5) t =
  summaries t
  |> List.sort (fun a b -> compare (b.latency.p99, b.served) (a.latency.p99, a.served))
  |> List.filteri (fun i _ -> i < k)

let outliers t =
  summaries t
  |> List.filter (fun s -> s.max_ratio > t.threshold)
  |> List.sort (fun a b -> compare b.max_ratio a.max_ratio)

let json_of_summary (s : summary) =
  Obs.Json.Obj
    [
      ("fingerprint", Obs.Json.Str s.fingerprint);
      ("strategy", Obs.Json.Str s.strategy);
      ("served", Obs.Json.Num (float_of_int s.served));
      ("p50_ms", Obs.Json.Num (s.latency.p50 *. 1000.0));
      ("p90_ms", Obs.Json.Num (s.latency.p90 *. 1000.0));
      ("p95_ms", Obs.Json.Num (s.latency.p95 *. 1000.0));
      ("p99_ms", Obs.Json.Num (s.latency.p99 *. 1000.0));
      ("max_ms", Obs.Json.Num (s.latency.max *. 1000.0));
      ("mean_ms", Obs.Json.Num (s.latency.mean *. 1000.0));
      ("ewma_mean_ms", Obs.Json.Num (s.ewma_mean *. 1000.0));
      ("ewma_std_ms", Obs.Json.Num (s.ewma_std *. 1000.0));
      ("predicted_ops", Obs.Json.Num s.predicted_total);
      ("observed_ops", Obs.Json.Num s.observed_total);
      ("residual", Obs.Json.Num s.residual);
      ("max_ratio", Obs.Json.Num s.max_ratio);
      ("violations", Obs.Json.Num (float_of_int s.violations));
      ("picks", Obs.Json.Num (float_of_int s.picks));
      ( "counters",
        Obs.Json.Obj
          (List.map
             (fun (k, v) -> (k, Obs.Json.Num (float_of_int v)))
             s.counters) );
    ]

let to_json t =
  Obs.Json.Obj
    [
      ("threshold", Obs.Json.Num t.threshold);
      ("violations", Obs.Json.Num (float_of_int t.total_violations));
      ("fingerprints", Obs.Json.Arr (List.map json_of_summary (summaries t)));
    ]

(* Must agree with [summary_of_cell]: the exposition of a cell is what
   its summary would say.  A series without quantiles is rendered as a
   counter. *)
let series_of_cell (c : cell) =
  let l = Obs.Histogram.summary c.latency in
  ( {
      Obs.Openmetrics.metric = "serve_fp_latency";
      labels = c.labels;
      quantiles = [ ("0.5", l.p50); ("0.9", l.p90); ("0.95", l.p95); ("0.99", l.p99) ];
      sum = l.mean *. float_of_int l.count;
      count = l.count;
    },
    if c.picks = 0 then None
    else
      Some
        {
          Obs.Openmetrics.metric = "serve_fp_picks";
          labels = c.labels;
          quantiles = [];
          sum = 0.0;
          count = c.picks;
        } )

(* Only the cells touched since the previous exposition are recomputed;
   the index is already in key order, so nothing is sorted. *)
let openmetrics t =
  let latency = ref [] and picks = ref [] in
  Key_map.iter
    (fun _ c ->
      let l, p =
        match c.exposed with
        | Some s -> s
        | None ->
          let s = series_of_cell c in
          c.exposed <- Some s;
          s
      in
      latency := l :: !latency;
      match p with Some p -> picks := p :: !picks | None -> ())
    t.index;
  List.rev_append !latency (List.rev !picks)

let to_table ?(k = 5) t =
  if is_empty t then ""
  else begin
    let buf = Buffer.create 512 in
    let pr fmt = Printf.bprintf buf fmt in
    pr "top %d fingerprints by p99 latency:\n" k;
    pr "  %-28s %-18s %6s %9s %9s %9s %8s\n" "fingerprint" "strategy" "served"
      "p50 ms" "p99 ms" "residual" "viol";
    List.iter
      (fun (s : summary) ->
        pr "  %-28s %-18s %6d %9.3f %9.3f %9.3f %8d\n" s.fingerprint s.strategy
          s.served (1e3 *. s.latency.p50) (1e3 *. s.latency.p99) s.residual
          s.violations)
      (top_by_p99 ~k t);
    (match outliers t with
    | [] -> ()
    | os ->
      pr "residual outliers (observed/predicted > %.2f):\n" t.threshold;
      List.iter
        (fun (s : summary) ->
          pr "  %-28s %-18s worst ratio %.3f over %d violations\n" s.fingerprint
            s.strategy s.max_ratio s.violations)
        os);
    Buffer.contents buf
  end
