(** Deterministic disk-fault injector for simulated stable storage.

    The network has {!Dcp_net.Link}; this is the analogous adversary for the
    stable layer.  A {!spec} is pure data describing the fault mix — it can
    be built anywhere (profiles name one per fault-matrix axis) — while a
    handle ({!t}) couples a spec to an RNG stream and may only be
    constructed inside [lib/stable] (lint-enforced, like the [Exec]-only
    domain-primitives rule): guardian code can ask for a faulty disk but can
    never inject faults itself.

    Fault model, mirroring what real storage does to a write-ahead log:
    - {b stall}: an append blocks for a bounded number of simulated ms
      (a slow sector / queue hiccup);
    - {b tear}: the record being written when the node dies is left with a
      bad CRC (partial sector write);
    - {b drop}: the un-flushed suffix of the log never reached the platter
      and is lost wholesale on a crash;
    - {b rot}: one byte of previously-flushed state (a log record or a
      checkpoint frame) is corrupted at rest.  Flushed log records carry a
      redundant mirror copy (as a paired journal would), so a single rot is
      salvageable; with probability [sector_p] the rot takes the mirror too
      and the record must be quarantined.

    Tears and drops only ever touch records that were never flushed, and
    the runtime flushes a guardian's store before any message leaves the
    node, so externally-observed state is immune to both — exactly the
    write-ahead discipline that makes a real log crash-safe. *)

type spec = {
  stall_p : float;  (** per-append probability the write stalls *)
  stall_ms : int;  (** max stall, simulated ms; duration uniform in [1, stall_ms] *)
  tear_p : float;  (** on crash: the last un-flushed record is torn *)
  drop_p : float;  (** on crash: the whole un-flushed suffix is lost *)
  rot_p : float;  (** on crash: one byte of flushed state rots *)
  sector_p : float;  (** given rot on a log record: the mirror rots too *)
}

val none : spec
(** All probabilities zero: a perfect disk. *)

val flaky : spec
(** The [+disk] fault-matrix preset: stalls, tears, drops and salvageable
    rot, but no mirror loss ([sector_p = 0.]) — every fault is recoverable
    without data loss, so model oracles must keep holding. *)

val hostile : spec
(** [flaky] plus certain mirror loss ([sector_p = 1.]): rot destroys both
    copies and recovery must quarantine.  For targeted regression seeds,
    not sweeps. *)

val pp : Format.formatter -> spec -> unit
(** One-line rendering for profile listings, e.g.
    [stall=0.05/5ms tear=0.50 drop=0.25 rot=0.30 sector=0.00]. *)

type t
(** A spec bound to its own RNG stream.  Only [lib/stable] may call
    {!create} (lint rule [disk-faults]); everyone else passes the spec to
    {!Store.create} and lets the store build its injector. *)

val create : spec -> Dcp_rng.Rng.t -> t

(** {1 Draws} — each consumes from the handle's private stream only, so
    attaching a disk never perturbs the world's other RNG streams. *)

val draw_stall : t -> int option
(** [Some ms] when this append stalls. *)

val draw_drop : t -> bool
val draw_tear : t -> bool

val draw_rot : t -> targets:int -> (int * bool) option
(** [draw_rot t ~targets] decides crash-time bit rot over [targets]
    equally-likely victims (flushed records and checkpoint frames):
    [Some (victim, sector)] where [sector] says the mirror rots too.
    [None] when no rot, or nothing flushed to rot. *)

val draw_byte : t -> len:int -> int
(** Victim byte offset within a [len]-byte payload.  Requires [len > 0]. *)
