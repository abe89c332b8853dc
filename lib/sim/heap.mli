(** Array-backed 4-ary min-heap, parameterised by an explicit comparison.

    Used as the event queue of the simulation {!Engine}; also exposed for
    tests and benchmarks.  Sifts use swap-free hole insertion and the
    4-ary layout halves tree depth, which matters because every shard of
    a world pays a push+pop per event.  Not thread safe (each heap is
    owned by exactly one shard, which runs on one domain). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (minimum first). *)

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val check_invariant : 'a t -> bool
(** [check_invariant h] is [true] iff every parent is <= its children.
    Exposed for property tests. *)
