(** Workload generation for the serving driver: query shapes over the
    XMark-flavoured vocabulary of {!Treekit.Generator}, and open- or
    closed-loop request streams over them.

    Everything is driven by an explicit [Random.State.t] so a (seed,
    shape-count, request-count) triple names the workload exactly —
    replayable across runs and in CI. *)

type shape = {
  source : string;  (** concrete syntax, re-parseable *)
  query : Treequery.Engine.query;
}

val gen_cq : Random.State.t -> string
(** The text of one conjunctive shape: a chain of 2–3 label-tested
    variables joined by [child], [descendant] or [following] atoms. *)

val shapes : rng:Random.State.t -> count:int -> shape array
(** [count] query shapes with pairwise-distinct canonical forms: a mix of
    Core XPath path expressions (child/descendant chains with qualifiers,
    some streamable) and conjunctive queries (chains over
    child/descendant/following — the [following] ones exercise the
    rewrite strategy, whose plan is the expensive one to cache).
    @raise Failure if the vocabulary cannot yield [count] distinct
    shapes. *)

type request = {
  id : int;
  shape : int;  (** index into the shape array *)
  arrival : float option;
      (** [Some t]: open loop, arrives [t] seconds after the run starts,
          whether or not the server is ready.  [None]: closed loop, the
          client issues it when the server finishes the previous one. *)
}

type kind =
  | Closed_loop
  | Open_loop of { rate : float }  (** arrivals at [rate] requests/s *)

val kind_of_string : string -> (kind, string) result
(** ["closed"] or ["open:<rate>"] (e.g. ["open:500"]). *)

val requests :
  rng:Random.State.t -> shapes:int -> count:int -> kind -> request list
(** [count] requests with uniformly drawn shape indices, in arrival
    order. *)

val requests_split :
  seed:int -> shapes:int -> count:int -> kind -> request list
(** Like {!requests}, but request [i]'s shape is drawn from its own RNG
    state derived by splitting [(seed, i)] under a stable salt (the
    {!Check.Gen} idiom) instead of one sequentially threaded state.  The
    stream is therefore a pure function of [(seed, shapes, count)] —
    independent of evaluation order, chunking, or domain count — which is
    what keeps parallel wall-clock runs replayable against sequential
    ones. *)

(** {1 Standing-query churn streams} *)

type registration_event =
  | Register of { id : int; shape : int }
      (** register shape [shape] under subscription ID [id] (= the event
          index, so IDs are strictly increasing and unique) *)
  | Unregister of { id : int }
      (** unregister the subscription registered by event [id]; may be a
          no-op if that event was not a registration or was already
          unregistered *)

val registrations_split :
  seed:int -> shapes:int -> count:int -> churn:float -> registration_event list
(** A seeded register/unregister churn stream for the standing-query
    index: [count] events, each an unregistration with probability
    [churn] (event 0 always registers).  Event [i]'s coin flips come
    from its own [(seed, i, salt)]-derived RNG (the {!requests_split}
    idiom), so the stream is deterministic and prefix-stable: the
    [count=k] stream equals the first k events of any longer stream.
    Register events take shape indices [0, 1, 2, …] in order, so the
    registered queries have pairwise-distinct canonicals whenever the
    backing {!shapes} array does; an unregistration targets a uniformly
    drawn earlier event index.
    @raise Invalid_argument when [churn] is outside [0, 1)
    @raise Failure when the register events outnumber [shapes] *)
