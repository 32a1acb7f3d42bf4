(** LRU plan cache keyed by canonical query fingerprint.

    The serving layer pays query planning — strategy selection and, for
    the rewrite strategy, the exponential-in-|Q| union of acyclic queries
    (Theorem 5.1) — once per query {e shape}: two requests whose queries
    are alpha-equivalent or parenthesization variants share one entry
    because the key is {!Treequery.Engine.canonical}.  The full canonical
    string is the key (a 64-bit fingerprint collision can never serve the
    wrong plan); the short {!Treequery.Engine.fingerprint} is only the
    display name.

    Eviction is least-recently-used at a fixed capacity; entries may also
    carry a TTL after which a lookup re-plans (and counts as a miss).
    Lookups bump the [plan_cache_hit] / [plan_cache_miss] /
    [plan_cache_evict] observability counters when tracing is enabled;
    {!stats} is always counted.

    Every operation takes the cache's internal mutex (a single lock, not
    a striped one: the LRU recency chain is one doubly-linked list that
    every hit mutates, so stripes would contend on it anyway), making
    the API safe to call from any domain.  The parallel server keeps
    lookups on the admitting domain, so the lock is uncontended there —
    it exists so sharing the cache across domains stays correct. *)

type t

type stats = {
  hits : int;
  misses : int;  (** includes TTL expirations *)
  evictions : int;  (** capacity evictions only *)
  expirations : int;  (** TTL expirations *)
  size : int;
  capacity : int;
}

val create : ?capacity:int -> ?ttl:float -> ?clock:(unit -> float) -> unit -> t
(** [capacity] (default 128) bounds the number of cached plans; 0 disables
    caching (every lookup misses and nothing is stored).  [ttl] is in
    seconds of [clock] time (default: no expiry); [clock] defaults to
    {!Obs.now} so tests can inject a fake clock. *)

val find : t -> Treequery.Engine.query -> [ `Hit | `Miss ] * Treequery.Engine.prepared
(** The cached plan for the query's canonical form, preparing (and
    storing) it on a miss.  The returned outcome feeds
    [Treequery.Engine.explain ~plan_cache]. *)

val stats : t -> stats

val size : t -> int
