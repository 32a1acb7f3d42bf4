(* The ops plane:
   - HTTP parsing: units over the error taxonomy (400/431), prefix
     feeding (any prefix of a valid head parses Incomplete or Complete,
     never Reject), and a never-raises property over random bytes;
   - the functorized connection loop over a chunked string transport
     (split/partial reads reassemble, rejects answer the right status);
   - router endpoints, readiness gating and content negotiation;
   - snapshot publication: sequence numbers, counter monotonicity
     across snapshots published from a pooled server run's on_tick;
   - loopback integration: a real listener domain scraped over TCP. *)

open Helpers
module E = Treequery.Engine

let mini_shapes sources =
  Array.of_list
    (List.map
       (fun s -> { Serve.Workload.source = s; query = E.parse_xpath s })
       sources)

module Http = Opsplane.Http
module Router = Opsplane.Router
module Snapshot = Opsplane.Snapshot
module Listener = Opsplane.Listener

(* ------------------------------------------------------------------ *)
(* HTTP parsing *)

let parse_status s =
  match Http.parse s with
  | Http.Complete (req, _) -> `Complete req
  | Http.Incomplete -> `Incomplete
  | Http.Reject (code, _) -> `Reject code

let test_parse_ok () =
  let head =
    "GET /metrics?window=5 HTTP/1.1\r\nHost: x\r\nAccept: text/plain \r\n\r\n"
  in
  match Http.parse head with
  | Http.Complete (req, consumed) ->
    Alcotest.(check string) "method" "GET" req.Http.meth;
    Alcotest.(check string) "path" "/metrics" req.Http.path;
    Alcotest.(check string) "query" "window=5" req.Http.query;
    Alcotest.(check (option string)) "host" (Some "x") (Http.header req "Host");
    Alcotest.(check (option string))
      "accept trimmed" (Some "text/plain") (Http.header req "ACCEPT");
    Alcotest.(check int) "consumed" (String.length head) consumed
  | _ -> Alcotest.fail "expected Complete"

let test_parse_bare_lf () =
  match parse_status "GET / HTTP/1.1\nHost: x\n\n" with
  | `Complete req -> Alcotest.(check string) "path" "/" req.Http.path
  | _ -> Alcotest.fail "bare-LF head should parse"

let test_parse_errors () =
  let check_reject name code input =
    match parse_status input with
    | `Reject c -> Alcotest.(check int) name code c
    | _ -> Alcotest.fail (name ^ ": expected Reject")
  in
  check_reject "no version" 400 "GET /\r\n\r\n";
  check_reject "not http" 400 "GET / SPDY/3\r\n\r\n";
  check_reject "relative target" 400 "GET metrics HTTP/1.1\r\n\r\n";
  check_reject "extra spaces" 400 "GET / two HTTP/1.1\r\n\r\n";
  check_reject "header without colon" 400 "GET / HTTP/1.1\r\nbogus\r\n\r\n";
  check_reject "empty header name" 400 "GET / HTTP/1.1\r\n: v\r\n\r\n";
  check_reject "long request line" 431
    ("GET /" ^ String.make 5000 'a' ^ " HTTP/1.1\r\n\r\n");
  check_reject "too many headers" 431
    ("GET / HTTP/1.1\r\n"
    ^ String.concat "" (List.init 100 (fun i -> Printf.sprintf "h%d: v\r\n" i))
    ^ "\r\n");
  (* an endless header section trips the head cap without a terminator *)
  check_reject "oversized head" 431 (String.make 20000 'x');
  match parse_status "GET / HTTP/1.1\r\nHost: x\r\n" with
  | `Incomplete -> ()
  | _ -> Alcotest.fail "unterminated head should be Incomplete"

let valid_head =
  "GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: application/openmetrics-text\r\n\r\n"

let test_parse_prefix_stability () =
  (* feeding any prefix never rejects: the parser waits for the blank
     line before judging the request *)
  for i = 0 to String.length valid_head - 1 do
    match parse_status (String.sub valid_head 0 i) with
    | `Incomplete -> ()
    | `Reject _ -> Alcotest.fail (Printf.sprintf "prefix %d rejected" i)
    | `Complete _ -> Alcotest.fail (Printf.sprintf "prefix %d completed" i)
  done;
  match parse_status valid_head with
  | `Complete _ -> ()
  | _ -> Alcotest.fail "full head should complete"

let prop_parse_never_raises =
  qtest ~count:500 "random bytes never crash the parser"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 200))
    (fun s ->
      match Http.parse s with
      | Http.Complete _ | Http.Incomplete | Http.Reject _ -> true)

(* ------------------------------------------------------------------ *)
(* connection loop over a chunked string transport *)

module Chunk_transport = struct
  type conn = { mutable pending : string list; out : Buffer.t }

  let read c buf off len =
    match c.pending with
    | [] -> 0
    | s :: rest ->
      let n = min len (String.length s) in
      Bytes.blit_string s 0 buf off n;
      c.pending <-
        (if n < String.length s then
           String.sub s n (String.length s - n) :: rest
         else rest);
      n

  let write c s = Buffer.add_string c.out s
end

module Conn = Http.Make (Chunk_transport)

let run_conn ?handler chunks =
  let handler =
    match handler with
    | Some h -> h
    | None -> fun (req : Http.request) -> Http.response 200 ("echo " ^ req.Http.path ^ "\n")
  in
  let c = { Chunk_transport.pending = chunks; out = Buffer.create 128 } in
  Conn.serve_connection ~handler c;
  Buffer.contents c.Chunk_transport.out

let response_status raw =
  match String.split_on_char ' ' raw with
  | _ :: code :: _ -> int_of_string code
  | _ -> -1

let test_conn_single_read () =
  let raw = run_conn [ valid_head ] in
  Alcotest.(check int) "status" 200 (response_status raw);
  Alcotest.(check bool) "body echoed" true
    (String.length raw > 0
    && String.sub raw (String.length raw - 14) 14 = "echo /metrics\n")

let test_conn_rejects () =
  Alcotest.(check int) "malformed" 400 (response_status (run_conn [ "garbage\r\n\r\n" ]));
  Alcotest.(check int) "oversized" 431
    (response_status (run_conn [ String.make 20000 'x' ]));
  Alcotest.(check int) "truncated" 400 (response_status (run_conn [ "GET / HT" ]));
  Alcotest.(check string) "eof before any byte writes nothing" "" (run_conn [])

let test_conn_head_only () =
  let raw =
    run_conn [ "HEAD /metrics HTTP/1.1\r\n\r\n" ]
  in
  Alcotest.(check int) "status" 200 (response_status raw);
  (* Content-Length advertised, body dropped *)
  Alcotest.(check bool) "no body" true
    (let stop = "\r\n\r\n" in
     let n = String.length raw in
     String.sub raw (n - 4) 4 = stop)

let prop_conn_split_reads =
  (* any chunking of a valid request reassembles to the same 200 *)
  qtest ~count:200 "split reads reassemble"
    QCheck2.Gen.(list_size (0 -- 8) (1 -- String.length valid_head))
    (fun cuts ->
      let cuts =
        List.sort_uniq compare
          (List.filter (fun c -> c < String.length valid_head) cuts)
      in
      let chunks =
        let rec go start = function
          | [] -> [ String.sub valid_head start (String.length valid_head - start) ]
          | c :: rest -> String.sub valid_head start (c - start) :: go c rest
        in
        go 0 cuts
      in
      response_status (run_conn chunks) = 200)

(* ------------------------------------------------------------------ *)
(* router *)

let get ?(accept = "") ?(meth = "GET") path =
  {
    Http.meth;
    path;
    query = "";
    headers = (if accept = "" then [] else [ ("accept", accept) ]);
  }

let test_router_endpoints () =
  let p = Snapshot.create ~version:"9.9.9" ~strategies:"s1,s2" () in
  let st = Router.make p in
  (* before the first publish: alive but not ready, no metrics *)
  Alcotest.(check int) "healthz" 200 (Router.handle st (get "/healthz")).Http.status;
  Alcotest.(check int) "readyz gated" 503 (Router.handle st (get "/readyz")).Http.status;
  Alcotest.(check int) "metrics gated" 503 (Router.handle st (get "/metrics")).Http.status;
  let _ = Snapshot.publish ~report:(Obs.Report.capture ()) p in
  Alcotest.(check int) "readyz" 200 (Router.handle st (get "/readyz")).Http.status;
  let m = Router.handle st (get "/metrics") in
  Alcotest.(check int) "metrics" 200 m.Http.status;
  let body = m.Http.body in
  Alcotest.(check bool) "ends with EOF" true
    (String.length body >= 6
    && String.sub body (String.length body - 6) 6 = "# EOF\n");
  Alcotest.(check bool) "carries build info" true
    (String.length body > 0
    &&
    let rec find i =
      i + 20 <= String.length body
      && (String.sub body i 20 = "treequery_build_info" || find (i + 1))
    in
    find 0);
  Alcotest.(check int) "statusz" 200 (Router.handle st (get "/statusz")).Http.status;
  Alcotest.(check int) "tracez" 200 (Router.handle st (get "/tracez")).Http.status;
  Alcotest.(check int) "flightz absent" 404 (Router.handle st (get "/flightz")).Http.status;
  Alcotest.(check int) "unknown" 404 (Router.handle st (get "/nope")).Http.status;
  Alcotest.(check int) "post" 405 (Router.handle st (get ~meth:"POST" "/metrics")).Http.status

let test_router_negotiation () =
  let p = Snapshot.create () in
  let st = Router.make p in
  let _ = Snapshot.publish p in
  let plain = Router.handle st (get "/metrics") in
  Alcotest.(check string) "default content type"
    "text/plain; version=0.0.4; charset=utf-8" plain.Http.content_type;
  let om = Router.handle st (get ~accept:"application/openmetrics-text" "/metrics") in
  Alcotest.(check string) "negotiated content type"
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
    om.Http.content_type

let test_router_flightz () =
  let p = Snapshot.create () in
  let st = Router.make p in
  let recorder = Telemetry.Flight_recorder.create () in
  let _ = Snapshot.publish ~recorder p in
  let r = Router.handle st (get "/flightz") in
  Alcotest.(check int) "flightz" 200 r.Http.status;
  (* the dump is well-formed JSON *)
  ignore (Obs.Json.of_string r.Http.body);
  let tz = Router.handle st (get "/tracez") in
  ignore (Obs.Json.of_string tz.Http.body)

(* ------------------------------------------------------------------ *)
(* snapshot publication *)

let test_snapshot_seq () =
  let p = Snapshot.create () in
  Alcotest.(check int) "seq 0 before publish" 0 (Snapshot.seq p);
  Alcotest.(check bool) "no latest" true (Snapshot.latest p = None);
  let s1 = Snapshot.publish p in
  let s2 = Snapshot.publish p in
  Alcotest.(check int) "seq 1" 1 s1.Snapshot.seq;
  Alcotest.(check int) "seq 2" 2 s2.Snapshot.seq;
  match Snapshot.latest p with
  | Some s -> Alcotest.(check int) "latest is last published" 2 s.Snapshot.seq
  | None -> Alcotest.fail "latest after publish"

let counters_monotone (a : Snapshot.t) (b : Snapshot.t) =
  List.for_all
    (fun (name, v) ->
      match List.assoc_opt name b.Snapshot.report.Obs.Report.counters with
      | Some v' -> v' >= v
      | None -> v = 0)
    a.Snapshot.report.Obs.Report.counters

(* the load-bearing property: snapshots published from a pooled server
   run's on_tick (admitting domain, after shard merge) carry
   monotonically non-decreasing counter totals *)
let test_snapshot_monotone_pooled () =
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      Obs.set_enabled true;
      let t = Treekit.Generator.xmark ~seed:11 ~scale:20 () in
      Treekit.Tree.seal t;
      let shapes =
        mini_shapes [ "//mail[date]"; "//item"; "//person/name"; "//a//b" ]
      in
      let reqs =
        List.init 400 (fun i ->
            { Serve.Workload.id = i; shape = i mod 4; arrival = None })
      in
      let pool = Serve.Pool.create ~domains:3 () in
      let p = Snapshot.create () in
      let snaps = ref [] in
      let cfg =
        Serve.Server.config ~concurrency:8 ~pool ~tick_every:1e-4
          ~on_tick:(fun _ _ -> snaps := Snapshot.publish p :: !snaps)
          ()
      in
      let stats =
        Fun.protect
          ~finally:(fun () -> Serve.Pool.shutdown pool)
          (fun () -> Serve.Server.run cfg t shapes reqs)
      in
      Alcotest.(check int) "served" 400 stats.Serve.Server.served;
      snaps := Snapshot.publish p :: !snaps;
      let ordered = List.rev !snaps in
      Alcotest.(check bool) "published at least twice" true
        (List.length ordered >= 2);
      let rec pairs = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool)
            (Printf.sprintf "counters monotone %d -> %d" a.Snapshot.seq
               b.Snapshot.seq)
            true (counters_monotone a b);
          Alcotest.(check bool) "seq monotone" true (b.Snapshot.seq > a.Snapshot.seq);
          pairs rest
        | _ -> ()
      in
      pairs ordered;
      (* the final snapshot agrees with the run's own accounting *)
      let last = List.nth ordered (List.length ordered - 1) in
      match
        List.assoc_opt "serve_requests_served"
          last.Snapshot.report.Obs.Report.counters
      with
      | Some n -> Alcotest.(check int) "final snapshot saw every request" 400 n
      | None -> Alcotest.fail "serve_requests_served missing from snapshot")

(* ------------------------------------------------------------------ *)
(* loopback integration: a real listener on an ephemeral port *)

let raw_request ~port data =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Bytes.of_string data in
      ignore (Unix.write sock b 0 (Bytes.length b));
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        match Unix.read sock chunk 0 1024 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception _ -> ()
      in
      drain ();
      Buffer.contents buf)

let test_listener_loopback () =
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      Obs.set_enabled true;
      let c = Obs.Counter.make "opsplane_test_events" in
      let p = Snapshot.create ~version:"t" ~strategies:"s" () in
      let router = Router.make p in
      let l = Listener.start ~port:0 ~handler:(Router.handle router) () in
      Fun.protect
        ~finally:(fun () -> Listener.stop l)
        (fun () ->
          let port = Listener.port l in
          let status, body = Listener.get ~port "/healthz" in
          Alcotest.(check int) "healthz over tcp" 200 status;
          Alcotest.(check string) "healthz body" "ok\n" body;
          Obs.Counter.incr c;
          Obs.Counter.incr c;
          let _ = Snapshot.publish p in
          let status, body = Listener.get ~port "/metrics" in
          Alcotest.(check int) "metrics over tcp" 200 status;
          Alcotest.(check bool) "ends with EOF" true
            (String.length body >= 6
            && String.sub body (String.length body - 6) 6 = "# EOF\n");
          let has_line needle =
            List.exists (fun l -> l = needle) (String.split_on_char '\n' body)
          in
          Alcotest.(check bool) "counter scraped" true
            (has_line "treequery_opsplane_test_events_total 2");
          (* consecutive scrapes observe non-decreasing counters *)
          Obs.Counter.incr c;
          let _ = Snapshot.publish p in
          let _, body' = Listener.get ~port "/metrics" in
          Alcotest.(check bool) "scrape monotone" true
            (List.exists
               (fun l -> l = "treequery_opsplane_test_events_total 3")
               (String.split_on_char '\n' body'));
          (* error paths over the real transport *)
          Alcotest.(check int) "tcp malformed" 400
            (response_status (raw_request ~port "garbage\r\n\r\n"));
          Alcotest.(check int) "tcp oversized" 431
            (response_status (raw_request ~port (String.make 20000 'x')));
          Alcotest.(check int) "tcp not found" 404
            (let s, _ = Listener.get ~port "/missing" in
             s);
          Alcotest.(check bool) "connections counted" true
            (Listener.connections l >= 6)))

(* ------------------------------------------------------------------ *)
(* publish cost: a host-independent allocation gate *)

(* Minor words allocated by one publish after serving [h] requests and
   then [delta] more, under a frozen clock.  A publish may grow with the
   spans and profiles retained since start-up only by the list cells
   that capture them; everything else it does (the touched cost-store
   cells, the flight dump) must not depend on [h]. *)
let publish_words ~tree ~shapes ~h ~delta =
  Obs.reset ();
  let store = Telemetry.Cost_store.create () in
  let recorder = Telemetry.Flight_recorder.create () in
  let optimizer = Optimizer.create ~store () in
  let cfg = Serve.Server.config ~telemetry:store ~recorder ~optimizer () in
  let nshapes = Array.length shapes in
  let serve first n =
    let reqs =
      List.init n (fun i ->
          { Serve.Workload.id = first + i; shape = (first + i) mod nshapes; arrival = None })
    in
    let stats = Serve.Server.run cfg tree shapes reqs in
    Alcotest.(check int) "served" n stats.Serve.Server.served
  in
  let p = Snapshot.create ~start_time:0.0 () in
  serve 0 h;
  ignore (Snapshot.publish ~telemetry:store ~recorder ~at:0.0 p);
  serve h delta;
  let w0 = Gc.minor_words () in
  ignore (Snapshot.publish ~telemetry:store ~recorder ~at:0.0 p);
  Gc.minor_words () -. w0

let test_publish_allocation_gate () =
  Obs.reset ();
  Obs.set_clock (fun () -> 0.0);
  Fun.protect
    ~finally:(fun () ->
      Obs.set_clock Sys.time;
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      Obs.set_enabled true;
      let tree = Treekit.Generator.xmark ~seed:11 ~scale:20 () in
      let shapes =
        mini_shapes
          [
            "//item"; "//person/name"; "//mail[date]"; "//a//b"; "//open_auction[bidder]";
            "//category/name"; "//item[location]"; "//closed_auction/price";
          ]
      in
      let h = 1000 and delta = 200 in
      let w1 = publish_words ~tree ~shapes ~h ~delta in
      let w3 = publish_words ~tree ~shapes ~h:(3 * h) ~delta in
      let per_request = (w3 -. w1) /. float_of_int (2 * h) in
      Alcotest.(check bool)
        (Printf.sprintf "%.1f words per retained request (%.0f after %d, %.0f after %d)"
           per_request w1 h w3 (3 * h))
        true (per_request <= 4.0))

let suite =
  [
    Alcotest.test_case "http: parse ok" `Quick test_parse_ok;
    Alcotest.test_case "http: bare LF" `Quick test_parse_bare_lf;
    Alcotest.test_case "http: error taxonomy" `Quick test_parse_errors;
    Alcotest.test_case "http: prefix stability" `Quick test_parse_prefix_stability;
    prop_parse_never_raises;
    Alcotest.test_case "conn: single read" `Quick test_conn_single_read;
    Alcotest.test_case "conn: rejects" `Quick test_conn_rejects;
    Alcotest.test_case "conn: HEAD" `Quick test_conn_head_only;
    prop_conn_split_reads;
    Alcotest.test_case "router: endpoints" `Quick test_router_endpoints;
    Alcotest.test_case "router: negotiation" `Quick test_router_negotiation;
    Alcotest.test_case "router: flightz/tracez" `Quick test_router_flightz;
    Alcotest.test_case "snapshot: sequence" `Quick test_snapshot_seq;
    Alcotest.test_case "snapshot: monotone under pooled run" `Quick
      test_snapshot_monotone_pooled;
    Alcotest.test_case "listener: loopback scrape" `Quick test_listener_loopback;
    Alcotest.test_case "snapshot: publish allocation gate" `Quick
      test_publish_allocation_gate;
  ]
