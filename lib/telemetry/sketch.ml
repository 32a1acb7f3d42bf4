(* A time-decayed EWMA.  See sketch.mli. *)

module Ewma = struct
  type t = {
    half_life : float;
    clock : unit -> float;
    mutable count : int;
    mutable mean : float;
    mutable var : float;
    mutable last : float;
  }

  let create ?(half_life = 30.0) ?(clock = Obs.now) () =
    if half_life <= 0.0 then invalid_arg "Sketch.Ewma.create: half_life must be > 0";
    { half_life; clock; count = 0; mean = 0.0; var = 0.0; last = 0.0 }

  let observe t v =
    let now = t.clock () in
    if t.count = 0 then begin
      t.mean <- v;
      t.var <- 0.0
    end
    else begin
      let dt = Float.max 0.0 (now -. t.last) in
      (* decay weight from elapsed clock time; when the clock is frozen
         (fake clocks, closed loops) fall back to the cumulative-average
         weight 1/(n+1) so samples are never silently dropped *)
      let alpha =
        Float.max
          (1.0 -. (0.5 ** (dt /. t.half_life)))
          (1.0 /. float_of_int (t.count + 1))
      in
      let diff = v -. t.mean in
      let incr = alpha *. diff in
      t.mean <- t.mean +. incr;
      t.var <- (1.0 -. alpha) *. (t.var +. (diff *. incr))
    end;
    t.count <- t.count + 1;
    t.last <- now

  let count t = t.count
  let mean t = t.mean
  let variance t = t.var
  let std t = sqrt t.var
end
