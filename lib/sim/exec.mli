(** Domain execution for sharded worlds — the shard-runtime module.

    This is the only module in the tree that may use OCaml's domain
    primitives ([Domain], [Atomic], [Mutex], [Condition]); the determinism
    lint flags them anywhere else.  The rest of the runtime keeps a
    single-writer discipline: each shard's engine, network, metrics and RNG
    streams are touched only by the domain running that shard, and data
    crosses shard boundaries only through the epoch-barrier outbox exchange
    that the {!round} caller performs while every worker is parked.

    Determinism argument: within a round no shard reads another shard's
    state, so the result of a round is the product of per-shard sequential
    executions — identical whether the shards run on [n] domains or are
    iterated in order on one.  The barrier (mutex + condition, two phases)
    gives the caller a happens-before edge over every worker's round. *)

type pool
(** [shards - 1] worker domains plus the calling domain, which runs
    shard 0. *)

val round : pool -> (int -> unit) -> unit
(** [round p work] runs [work i] for every shard [i] in [0, shards)] —
    concurrently on the pool's domains ([work 0] on the caller) — and
    returns once all have finished.  [work] must touch only shard-[i]
    state. *)

val with_pool : shards:int -> (pool -> 'a) -> 'a
(** Spawn, run, and always shut down (no leaked domains). *)

(** {1 Shared counters}

    A monotonic counter safe to bump from any domain.  Use only for values
    whose {e uniqueness} matters but whose order does not (process ids in
    log lines); anything that feeds message bytes must come from per-shard
    deterministic streams instead. *)

type counter

val counter : int -> counter
val fetch_incr : counter -> int
(** Returns the pre-increment value. *)
