(** Discrete-event simulation engine.

    A single-threaded event loop over a virtual clock.  Events are callbacks
    scheduled at absolute virtual times; ties are broken by scheduling order,
    so a run is fully deterministic.  Timers can be cancelled, which is how
    the runtime implements receive-with-timeout. *)

type t

type timer
(** Handle to a scheduled event, usable for cancellation. *)

val create : unit -> t

val now : t -> Clock.time
(** Current virtual time. *)

val schedule : t -> at:Clock.time -> (unit -> unit) -> timer
(** [schedule t ~at f] runs [f] when the virtual clock reaches [at].
    Scheduling in the past is clamped to [now t]. *)

val schedule_after : t -> delay:Clock.time -> (unit -> unit) -> timer
(** [schedule_after t ~delay f] is [schedule t ~at:(now t + delay) f]. *)

val cancel : timer -> unit
(** Cancelling an already-fired or already-cancelled timer is a no-op. *)

val pending : t -> int
(** Number of scheduled, uncancelled events. *)

val step : t -> bool
(** Execute the next event, advancing the clock. [false] if none remain. *)

val run : t -> unit
(** Run until no events remain. *)

val run_until : t -> Clock.time -> unit
(** Run events with time <= the limit; the clock is left at the limit if the
    queue drains earlier events, otherwise at the last executed event. *)

val run_for : t -> Clock.time -> unit
(** [run_for t d] is [run_until t (now t + d)]. *)

val events_executed : t -> int
(** Total events executed so far (for sanity checks and benchmarks). *)

val next_time : t -> Clock.time option
(** Time of the earliest queued timer, cancelled ones included — a lower
    bound on when the next live event fires.  Lets a sharded driver skip
    empty epoch windows instead of stepping through them. *)
