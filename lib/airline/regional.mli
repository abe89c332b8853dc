(** The regional manager guardian P{_j} (Figures 2 and 4).

    "It simply looks up the guardian of the requested flight using a map,
    and forwards the request; the response will go directly from the flight
    guardian to the original requesting process, bypassing the regional
    manager."

    At creation the regional manager creates one flight guardian per
    configured flight *at its own node* (the paper's placement rule: a
    region's flights live on the region's node) and builds its directory.
    Requests for unknown flights are answered [no_such_flight] directly. *)

open Dcp_wire

type flight_config = { flight : Types.flight_no; capacity : int }

val create :
  Dcp_core.Runtime.world ->
  at:Dcp_core.Runtime.node_id ->
  flights:flight_config list ->
  ?waitlist_capacity:int ->
  ?organization:Types.organization ->
  ?service_time:Dcp_sim.Clock.time ->
  unit ->
  Port_name.t
(** Bootstrap helper: create the guardian (and its flight guardians, all
    with {!Types.Idempotent_set} accounting) and return the regional
    request port. *)
