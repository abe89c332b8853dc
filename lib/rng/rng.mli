(** Random draws and distributions over a {!Splitmix} stream.

    All simulator randomness flows through values of this type so that an
    entire run is a pure function of its root seed.  Use {!split} to hand an
    independent stream to each subsystem (network links, workload generators,
    fault injectors, ...) — splitting keeps streams independent even when the
    subsystems interleave their draws differently between runs. *)

type t

val create : seed:int -> t
(** [create ~seed] is a fresh root stream. *)

val split : t -> t
(** [split t] is a new stream independent of [t]'s future output. *)

(** {1 Basic draws} *)

val bits64 : t -> int64
(** 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

(** {1 Distributions} *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (rate 1/mean). *)

(** {1 Collections} *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choice_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] is [k] distinct values from [\[0, n)],
    in random order (the first [k] of a Fisher–Yates shuffle). Requires
    [0 <= k <= n]. *)
