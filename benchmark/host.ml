(* How fast the host runs at the moment, gauged by a fixed piece of
   benchmark-owned work timed between the program's own work.

   The reference host shares its cores with other tenants.  For seconds
   to minutes at a time the code under test runs 1.3–1.5 times slower,
   and runs of identical inputs minutes apart differed by that much.
   Work that does not change from commit to commit, timed at the same
   moments, slows with it, so every time metric is reported scaled to a
   host on which that work takes [reference_s]: measured time ×
   [reference_s] / the time the gauge took around it.

   The gauge builds and folds short lists: like the parsers and
   evaluators under test it allocates fast and dies young, which is
   what the slow periods slow down most (a loop of arithmetic alone did
   not slow with them).  It runs in a helper process of its own, with
   its own small heap and fixed GC settings, so that nothing the program
   does to its heap or its GC can speed up or slow down the gauge and
   cancel part of a real change.  The program waits while the helper
   runs it. *)

let sink = ref 0

let work () =
  for _ = 1 to 300 do
    sink := !sink + List.fold_left ( + ) 0 (List.init 1000 (fun i -> i * 3))
  done

(* Seconds the work takes: the least of three tries, since a try
   interrupted by the scheduler says nothing about the host's speed. *)
let time_work () =
  Gc.minor ();
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    work ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* The helper's loop: one timing for every line on stdin, until end of
   file.  The GC settings are OCaml 5.1's defaults, set here so that a
   library's settings, made when the executable starts, do not carry
   over. *)
let serve () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  (try
     while true do
       ignore (input_line stdin);
       Printf.printf "%.17g\n%!" (time_work ())
     done
   with End_of_file -> ());
  exit 0

(* The executable run with [helper_flag] as its only argument is the
   helper. *)
let helper_flag = "--gauge-helper"

let helper = ref None

(* Close the helper's stdin and wait for it to end. *)
let stop () =
  match !helper with
  | Some h ->
    helper := None;
    ignore (Unix.close_process h)
  | None -> ()

(* Seconds the gauge takes now, timed by the helper, which is started on
   first use and stopped when the program exits. *)
let sample () =
  let ic, oc =
    match !helper with
    | Some h -> h
    | None ->
      let h = Unix.open_process_args Sys.executable_name [| Sys.executable_name; helper_flag |] in
      helper := Some h;
      at_exit stop;
      h
  in
  output_char oc '\n';
  flush oc;
  float_of_string (input_line ic)

(* The gauge's time on the reference host in a quiet period. *)
let reference_s = 2.8e-3

(* Measured time × [scale g] is the time on the reference host, for a
   gauge sample [g] taken around the measurement. *)
let scale g = reference_s /. g
