(* Weighted-sample quantile digest (GK/CKMS family) and a time-decayed
   EWMA.  See sketch.mli for the exactness and mergeability contract. *)

module Quantile = struct
  type t = {
    capacity : int;
    (* (value, weight) ascending by value; equal values always coalesce,
       so while [List.length tuples <= capacity] the digest is exact *)
    mutable tuples : (float * int) list;
    mutable ntuples : int;
    mutable pending : float list; (* unsorted recent adds *)
    mutable npending : int;
    mutable count : int;
    mutable min_v : float;
    mutable max_v : float;
    mutable sum : float;
  }

  let create ?(capacity = 128) () =
    if capacity < 2 then invalid_arg "Sketch.Quantile.create: capacity must be >= 2";
    {
      capacity;
      tuples = [];
      ntuples = 0;
      pending = [];
      npending = 0;
      count = 0;
      min_v = 0.0;
      max_v = 0.0;
      sum = 0.0;
    }

  (* merge two ascending tuple lists, coalescing equal values (exact) *)
  let rec merge_sorted a b =
    match (a, b) with
    | [], l | l, [] -> l
    | (va, wa) :: ra, (vb, wb) :: rb ->
      if va < vb then (va, wa) :: merge_sorted ra b
      else if vb < va then (vb, wb) :: merge_sorted a rb
      else (va, wa + wb) :: merge_sorted ra rb

  (* shrink to capacity: repeatedly merge the adjacent pair with the
     smallest combined weight (first such pair on ties), keeping the
     heavier member's value (the later one on ties).  Deterministic, so
     merge stays commutative even over capacity; any answer's rank error
     is bounded by the largest weight this creates. *)
  let compact capacity tuples ntuples =
    let arr = Array.of_list tuples in
    let n = ref ntuples in
    while !n > capacity do
      let best = ref 0 and best_w = ref max_int in
      for i = 0 to !n - 2 do
        let w = snd arr.(i) + snd arr.(i + 1) in
        if w < !best_w then begin
          best := i;
          best_w := w
        end
      done;
      let va, wa = arr.(!best) and vb, wb = arr.(!best + 1) in
      arr.(!best) <- ((if wa > wb then va else vb), wa + wb);
      for i = !best + 1 to !n - 2 do
        arr.(i) <- arr.(i + 1)
      done;
      decr n
    done;
    (Array.to_list (Array.sub arr 0 !n), !n)

  let flush t =
    if t.npending > 0 then begin
      (* one sort, then run lengths: (value, multiplicity) ascending *)
      let fresh =
        List.fold_left
          (fun runs v ->
            match runs with
            | (u, w) :: rest when compare u v = 0 -> (u, w + 1) :: rest
            | _ -> (v, 1) :: runs)
          []
          (List.sort (fun a b -> compare b a) t.pending)
      in
      t.pending <- [];
      t.npending <- 0;
      let merged = merge_sorted t.tuples fresh in
      let n = List.length merged in
      let tuples, n =
        if n > t.capacity then compact t.capacity merged n else (merged, n)
      in
      t.tuples <- tuples;
      t.ntuples <- n
    end

  let add t v =
    if t.count = 0 || v < t.min_v then t.min_v <- v;
    if t.count = 0 || v > t.max_v then t.max_v <- v;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    t.pending <- v :: t.pending;
    t.npending <- t.npending + 1;
    if t.npending >= t.capacity then flush t

  let count t = t.count
  let min_value t = if t.count = 0 then 0.0 else t.min_v
  let max_value t = if t.count = 0 then 0.0 else t.max_v
  let sum t = t.sum
  let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count

  let quantile t q =
    if t.count = 0 then 0.0
    else begin
      flush t;
      let target =
        let r = int_of_float (ceil (q *. float_of_int t.count)) in
        if r < 1 then 1 else if r > t.count then t.count else r
      in
      let rec walk cum = function
        | [] -> t.max_v (* unreachable: weights sum to count *)
        | (v, w) :: rest -> if cum + w >= target then v else walk (cum + w) rest
      in
      walk 0 t.tuples
    end

  let tuples t =
    flush t;
    t.tuples

  let merge a b =
    flush a;
    flush b;
    let capacity = max a.capacity b.capacity in
    let merged = merge_sorted a.tuples b.tuples in
    let n = List.length merged in
    let tuples, ntuples =
      if n > capacity then compact capacity merged n else (merged, n)
    in
    {
      capacity;
      tuples;
      ntuples;
      pending = [];
      npending = 0;
      count = a.count + b.count;
      min_v =
        (if a.count = 0 then b.min_v
         else if b.count = 0 then a.min_v
         else Float.min a.min_v b.min_v);
      max_v =
        (if a.count = 0 then b.max_v
         else if b.count = 0 then a.max_v
         else Float.max a.max_v b.max_v);
      sum = a.sum +. b.sum;
    }
end

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
