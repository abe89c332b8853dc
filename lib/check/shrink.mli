(** Counterexample shrinking.

    Given a failing (seed, profile) point, greedily minimise the horizon,
    the workload size, and the fault intensity while the scenario still
    fails, and report the smallest reproducing configuration.  Every trial
    is a deterministic replay, so the shrink itself is deterministic. *)

module Clock = Dcp_sim.Clock

type counterexample = {
  scenario : string;
  seed : int;
  profile : string;  (** base profile name (before intensity scaling) *)
  intensity : float;
  horizon : Clock.time;
  workload : int;
  reason : string;  (** failure reason at the minimal point *)
  trials : int;  (** scenario runs spent, including the initial replay *)
  accepted : int;  (** shrink steps that kept the failure alive *)
}

val run :
  Scenario.t ->
  seed:int ->
  profile:Profile.t ->
  ?horizon:Clock.time ->
  ?workload:int ->
  ?budget:int ->
  unit ->
  (counterexample, string) result
(** [Error] when the starting point does not fail (nothing to shrink).
    [budget] caps the number of scenario runs (default 60). *)

val pp : Format.formatter -> counterexample -> unit
(** Renders the counterexample and, last, the [dcp_check run] invocation
    that reproduces it. *)
