(** The itinerary guardian: atomic multi-leg bookings over two-phase commit.

    §3 requires the chosen primitive to express the literature's protocols
    for "recoverable atomic transactions"; this guardian is the airline's
    use of one.  A trip of several flight legs books *atomically*: either
    every leg's flight guardian commits a seat or none does, even if the
    itinerary guardian's node crashes between the phases (the logged
    decision is re-announced by its recovery process).

    Port (RPC convention):
    {v
    book_trip (passenger, [(flight, date); ...])
      replies (booked, unavailable(string))
    book_naive (passenger, [(flight, date); ...])
      replies (booked, stranded(int), unavailable(string))
    v}

    [book_naive] is the E9 baseline: it reserves the legs one at a time
    with plain reserves, and when a later leg is full the passenger is
    left *stranded* holding the earlier legs (the reply reports how many).
    The atomic path never strands anyone. *)

open Dcp_wire

val create :
  Dcp_core.Runtime.world ->
  at:Dcp_core.Runtime.node_id ->
  directory:(Types.flight_no * Port_name.t) list ->
  unit ->
  Port_name.t
(** [directory] maps flight numbers to flight-guardian ports (itineraries
    talk to flight guardians directly; holds are below the regional
    dispatch layer). *)
