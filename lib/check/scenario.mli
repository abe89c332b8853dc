(** The checkable scenario abstraction.

    A scenario is a pure function from (seed, fault profile, horizon,
    workload size) to an outcome: it builds a fresh world from the seed,
    installs a workload, schedules faults per the profile, runs to a
    quiescent point and evaluates its oracles.  Purity is what makes seed
    sweeps replayable and counterexamples shrinkable — a failing (seed,
    profile, horizon, workload) quadruple alone reproduces the failure. *)

module Clock = Dcp_sim.Clock

type params = {
  seed : int;
  profile : Profile.t;
  horizon : Clock.time;  (** fault-injection and workload-pacing window *)
  workload : int;  (** scenario-defined size knob (transfers, clerks, trips) *)
  shards : int;  (** world partition count; part of the determinism surface *)
  parallel : bool;  (** run shards on domains (must not change the fingerprint) *)
}

type verdict = Pass | Fail of string

type outcome = {
  verdict : verdict;
  fingerprint : string;
      (** digest of observable counters; identical params must yield
          identical fingerprints (the determinism surface) *)
  stats : (string * int) list;
}

type t = {
  name : string;
  descr : string;
  default_horizon : Clock.time;
  default_workload : int;
  run : params -> outcome;
}

val execute :
  t ->
  seed:int ->
  profile:Profile.t ->
  ?horizon:Clock.time ->
  ?workload:int ->
  ?intensity:float ->
  ?shards:int ->
  ?parallel:bool ->
  unit ->
  outcome
(** Run with defaults filled in; [intensity] rescales the profile's fault
    probabilities ({!Profile.scale}, default 1.0).  [shards] (default 1)
    partitions the world; the fingerprint is a function of
    (seed, profile, horizon, workload, shards) and must not depend on
    [parallel]. *)

val fail_reason : outcome -> string option

val pp_outcome : Format.formatter -> outcome -> unit
