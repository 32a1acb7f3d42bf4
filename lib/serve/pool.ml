(* Fixed-size work-stealing domain pool for the serving layer.

   [size] counts participants including the caller's domain: a pool of
   size k spawns k-1 worker domains and the submitting domain works
   alongside them during [run], so `--domains 1` is the sequential twin
   (no domains spawned, tasks run in order on the caller).

   Each participant owns a deque of task indices guarded by a plain
   mutex; tasks are dealt round-robin at submission, a participant pops
   from the front of its own deque and steals from the back of the
   others when empty.  Tasks here are coarse (one query evaluation or
   batch rep, typically 10µs–10ms), so a mutex per deque costs noise
   compared to the work it hands out — the stealing structure is what
   matters: an unlucky deal (one deque full of slow plans) rebalances
   instead of serialising the tail.

   Jobs are dispatched by generation: workers sleep on a condition
   variable between jobs, [run] installs the job and bumps the
   generation, workers wake, drain, and the last finished task signals
   the caller.  Results land in a per-task slot array, so [run] returns
   them in submission order no matter which domain ran what. *)

type job = {
  tasks : (unit -> unit) array;  (* index-addressed closures, result capture inside *)
  deques : int list ref array;  (* per-participant pending task indices *)
  deque_locks : Mutex.t array;
  completed : int Atomic.t;
}

type t = {
  size : int;
  lock : Mutex.t;  (* guards job/generation/shutdown *)
  work_cv : Condition.t;  (* workers wait here for a new generation *)
  done_cv : Condition.t;  (* the caller waits here for job completion *)
  mutable job : job option;
  mutable generation : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  mutable running : bool;  (* a [run] is in flight (pools are not reentrant) *)
}

let size t = t.size

(* pop own front, else steal another participant's back; [me] indexes
   the participant *)
let grab (j : job) me =
  let n = Array.length j.deques in
  let try_own () =
    Mutex.lock j.deque_locks.(me);
    let r =
      match !(j.deques.(me)) with
      | [] -> None
      | x :: rest ->
        j.deques.(me) := rest;
        Some x
    in
    Mutex.unlock j.deque_locks.(me);
    r
  in
  let try_steal victim =
    Mutex.lock j.deque_locks.(victim);
    let r =
      match List.rev !(j.deques.(victim)) with
      | [] -> None
      | x :: rest_rev ->
        j.deques.(victim) := List.rev rest_rev;
        Some x
    in
    Mutex.unlock j.deque_locks.(victim);
    r
  in
  match try_own () with
  | Some _ as r -> r
  | None ->
    let rec steal k =
      if k >= n then None
      else
        let victim = (me + k) mod n in
        if victim = me then steal (k + 1)
        else match try_steal victim with Some _ as r -> r | None -> steal (k + 1)
    in
    steal 1

let drain t (j : job) me =
  let total = Array.length j.tasks in
  let rec loop () =
    match grab j me with
    | None -> ()
    | Some i ->
      j.tasks.(i) ();
      let done_now = 1 + Atomic.fetch_and_add j.completed 1 in
      if done_now = total then begin
        (* last task: wake the caller (who may be idling in [run]) *)
        Mutex.lock t.lock;
        Condition.broadcast t.done_cv;
        Mutex.unlock t.lock
      end;
      loop ()
  in
  loop ()

let worker t me () =
  let rec live gen =
    Mutex.lock t.lock;
    while (not t.stop) && t.generation = gen do
      Condition.wait t.work_cv t.lock
    done;
    let stop = t.stop in
    let gen = t.generation in
    let job = t.job in
    Mutex.unlock t.lock;
    if not stop then begin
      (match job with Some j -> drain t j me | None -> ());
      live gen
    end
  in
  live 0

let create ?(domains = 1) () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      size = domains;
      lock = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      job = None;
      generation = 0;
      stop = false;
      domains = [];
      running = false;
    }
  in
  t.domains <- List.init (domains - 1) (fun k -> Domain.spawn (worker t (k + 1)));
  t

let run (type a) t (thunks : (unit -> a) array) : a array =
  let total = Array.length thunks in
  if t.stop then invalid_arg "Pool.run: pool is shut down"
  else if total = 0 then [||]
  else if t.size <= 1 || total = 1 then
    (* sequential twin: in-order on the calling domain, nothing shared *)
    Array.map (fun f -> f ()) thunks
  else begin
    Mutex.lock t.lock;
    if t.stop then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.run: pool is shut down"
    end;
    if t.running then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.run: pool is already running a job"
    end;
    t.running <- true;
    Mutex.unlock t.lock;
    let results : a option array = Array.make total None in
    let first_exn = Atomic.make None in
    let tasks =
      Array.mapi
        (fun i f () ->
          match f () with
          | x -> results.(i) <- Some x
          | exception e ->
            (* remember the first failure (and its backtrace is lost to
               the domain boundary anyway); remaining tasks still run so
               the job always drains *)
            ignore (Atomic.compare_and_set first_exn None (Some e)))
        thunks
    in
    let n = t.size in
    let deques = Array.init n (fun _ -> ref []) in
    (* deal round-robin, preserving order within each deque *)
    for i = total - 1 downto 0 do
      deques.(i mod n) := i :: !(deques.(i mod n))
    done;
    let j =
      {
        tasks;
        deques;
        deque_locks = Array.init n (fun _ -> Mutex.create ());
        completed = Atomic.make 0;
      }
    in
    Mutex.lock t.lock;
    t.job <- Some j;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.lock;
    (* the caller is participant 0: work until the deques are dry, then
       wait for in-flight stolen tasks to finish *)
    drain t j 0;
    Mutex.lock t.lock;
    while Atomic.get j.completed < total do
      Condition.wait t.done_cv t.lock
    done;
    t.job <- None;
    t.running <- false;
    Mutex.unlock t.lock;
    (match Atomic.get first_exn with Some e -> raise e | None -> ());
    Array.map
      (function Some x -> x | None -> invalid_arg "Pool.run: missing result")
      results
  end

let mapi_sharded ?pool f items =
  match pool with
  | Some t when t.size > 1 && Array.length items > 1 ->
    let results =
      run t
        (Array.mapi
           (fun i x () ->
             let sh = Obs.Shard.create () in
             (Obs.Shard.run sh (fun () -> f i x), sh))
           items)
    in
    Array.map
      (fun (y, sh) ->
        Obs.Shard.merge sh;
        y)
      results
  | _ -> Array.mapi f items

let shutdown t =
  Mutex.lock t.lock;
  let ds = t.domains in
  t.domains <- [];
  t.stop <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.lock;
  List.iter Domain.join ds
