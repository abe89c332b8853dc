(** The concrete scenario library.

    Each scenario wires a subsystem workload to the fault machinery and
    its model oracles:

    - [bank]: cross-branch transfer sagas; money conservation, saga
      quiescence, and the sequential reference model over the branches'
      durable response records.
    - [airline]: the Figure-2 cluster under clerk load; per-date seat
      ledger invariants.
    - [itinerary]: two-leg 2PC bookings; all-or-nothing atomicity, honest
      acks, no dangling holds.
    - [replica]: 100 anti-entropy gossip replicas under write load and
      churn; all live key → stamp tables identical at quiescence, every
      sync message under the byte budget, convergence time measured.
    - [replica_1k]: the same protocol at 1000 replicas — a scale probe
      runnable by name but kept out of the default sweep.
    - [register]: SCD-broadcast atomic registers (5 members) under client
      load and churn; the recorded per-client histories must linearize and
      every member's durable table must converge.
    - [snapshot]: the SCD snapshot object (4 members); same oracles, with
      whole-state snapshot views in the histories.
    - [bank_mutated]: [bank] with a reference model that deliberately
      ignores the first transfer — the harness self-test.  It MUST fail on
      most seeds; a sweep that reports it green means the checker itself
      is broken.
    - [register_mutated]: [register] without delivery barriers — writes
      acked at broadcast time, reads served from the stale local copy —
      the linearizability oracle's self-test; must fail under profiles
      with real network delay.

    Scenarios are reached by name ({!find}), as [dcp_check] does. *)

val all : Scenario.t list
(** The honest default-sweep scenarios (excludes [bank_mutated] and
    [replica_1k]). *)

val every : Scenario.t list
(** [all] plus the off-by-default scenarios ([bank_mutated],
    [replica_1k]) — what [list] shows and [find] searches. *)

val find : string -> Scenario.t option
(** By name, including [bank_mutated] and [replica_1k]. *)

val names : string list
(** Every scenario name, including [bank_mutated] and [replica_1k]. *)
