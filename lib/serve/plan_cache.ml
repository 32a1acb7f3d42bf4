module Engine = Treequery.Engine

let c_hit = Obs.Counter.make "plan_cache_hit"
let c_miss = Obs.Counter.make "plan_cache_miss"
let c_evict = Obs.Counter.make "plan_cache_evict"

(* intrusive doubly-linked recency list; [head] is most recent *)
type entry = {
  key : string;
  prepared : Engine.prepared;
  mutable stamp : float;  (* insertion time, for TTL *)
  mutable prev : entry option;
  mutable next : entry option;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  expirations : int;
  size : int;
  capacity : int;
}

type t = {
  table : (string, entry) Hashtbl.t;
  capacity : int;
  ttl : float option;
  clock : unit -> float;
  (* One mutex for the whole cache, not a striped lock: the LRU recency
     list is a single doubly-linked chain, and every hit mutates it
     ([touch]), so stripes would still contend on the list and buy
     nothing.  The parallel server keeps all lookups on the admitting
     domain anyway (workers receive already-prepared plans), so in
     practice this lock is uncontended — it exists so the API stays safe
     if a future front-end looks plans up from several domains. *)
  lock : Mutex.t;
  mutable head : entry option;
  mutable tail : entry option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable expirations : int;
}

let create ?(capacity = 128) ?ttl ?(clock = Obs.now) () =
  if capacity < 0 then invalid_arg "Plan_cache.create: negative capacity";
  {
    table = Hashtbl.create (max 16 capacity);
    capacity;
    ttl;
    clock;
    lock = Mutex.create ();
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    expirations = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let touch t e =
  unlink t e;
  push_front t e

let remove t e =
  unlink t e;
  Hashtbl.remove t.table e.key

let expired t e =
  match t.ttl with None -> false | Some ttl -> t.clock () -. e.stamp > ttl

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some e ->
    remove t e;
    t.evictions <- t.evictions + 1;
    Obs.Counter.incr c_evict

let insert t key prepared =
  if t.capacity > 0 then begin
    while Hashtbl.length t.table >= t.capacity do
      evict_lru t
    done;
    let e = { key; prepared; stamp = t.clock (); prev = None; next = None } in
    Hashtbl.replace t.table key e;
    push_front t e
  end

let find t query =
  let key = Engine.canonical query in
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some e when not (expired t e) ->
    t.hits <- t.hits + 1;
    Obs.Counter.incr c_hit;
    touch t e;
    (`Hit, e.prepared)
  | found ->
    (match found with
    | Some e ->
      remove t e;
      t.expirations <- t.expirations + 1
    | None -> ());
    t.misses <- t.misses + 1;
    Obs.Counter.incr c_miss;
    let prepared = Engine.prepare query in
    insert t key prepared;
    (`Miss, prepared)

let size t = locked t @@ fun () -> Hashtbl.length t.table

let stats t =
  locked t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    expirations = t.expirations;
    size = Hashtbl.length t.table;
    capacity = t.capacity;
  }
