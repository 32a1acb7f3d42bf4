(** Fixed-size work-stealing pool of OCaml 5 domains for the serving
    layer's parallel execution.

    A pool of size [k] spawns [k-1] worker domains once, at creation;
    the domain calling {!run} works alongside them, so [k] is the true
    degree of parallelism and a pool of size 1 spawns nothing and runs
    tasks sequentially in submission order — the deterministic twin the
    virtual-time tests rely on.

    Tasks are dealt round-robin over per-participant deques; an idle
    participant pops its own deque front-first and steals from the back
    of the others, so a skewed deal (one deque full of slow plans)
    rebalances instead of serialising the tail.  Deques are guarded by
    plain mutexes — tasks here are whole query evaluations, coarse
    enough that lock traffic is noise.

    Anything a task touches must be safe to read concurrently: trees
    {!Treekit.Tree.seal}ed before publication, prepared plans (immutable
    closures), and observability routed through per-task
    {!Obs.Shard}s.  {!run} makes no attempt to isolate effects;
    {!mapi_sharded}, the loop every serving path uses, gives each task
    its own shard. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains:k ()] spawns [k-1] worker domains (default
    [k = 1]: no domains, sequential execution).  Workers idle on a
    condition variable between jobs.  @raise Invalid_argument when
    [k < 1]. *)

val size : t -> int
(** The participant count [k] given at creation (including the
    caller). *)

val run : t -> (unit -> 'a) array -> 'a array
(** Execute every thunk and return their results in submission order.
    Blocks until all tasks completed; the calling domain participates.
    If any task raises, the first exception observed is re-raised after
    the whole job has drained (every task still runs).  Not reentrant —
    one job at a time per pool; nested or concurrent {!run} calls raise
    [Invalid_argument].  With [size t = 1] (or a single task) this is
    exactly [Array.map (fun f -> f ()) tasks]. *)

val mapi_sharded : ?pool:t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [mapi_sharded ?pool f items] is [Array.mapi f items], the serving
    layer's one parallel loop.  With a pool of size > 1 and more than one
    item, each item is one pool task run under its own {!Obs.Shard}; once
    the job drained, the shards merge on the calling domain in item
    order, so counter totals, spans and scope profiles come out as on the
    sequential path.  Otherwise the items run inline, in order, with no
    shard.  Exceptions propagate as from {!run}. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; {!run} afterwards
    raises [Invalid_argument].  Call once the pool is no longer needed —
    a pool left un-shutdown keeps its domains blocked on the condition
    variable until process exit. *)
