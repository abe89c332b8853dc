(** The user-interface guardian U{_j} and its transaction processes
    (Figure 2 process q, Figure 5 procedure do_trans).

    "The user interface guardians U{_i} create a new process to handle a
    transaction consisting of a set of reservations and cancellations for a
    single customer.  This process accepts requests one at a time.  It does
    each reserve request and reports the result to the clerk.  Cancel
    requests are not done immediately, however, but are processed at the
    time the transaction finishes ...  Cancellations are saved until the
    end of the transaction to permit the customer a late change of mind.
    An unwanted reservation can be undone by a cancel, but the reverse is
    not true since the seat may have been taken in the meantime."

    Protocol, all RPC-style (request id first):
    - to the front-desk port: [begin_transaction(passenger)] replies
      [transaction(port)] with a fresh conversation port;
    - to the transaction port: [reserve(flight, date)] → the reserve reply,
      or [failure("can't communicate")] after a regional timeout (Figure
      5); [cancel(flight, date)] → [deferred]; [undo] →
      [undone | nothing_to_undo] (undoing a reserve schedules a cancel,
      undoing a deferred cancel simply forgets it); [finish] → performs the
      deferred cancels and replies [finished(cancels_done, cancels_failed)],
      then the process terminates.  A transaction process that hears
      nothing from its clerk for 60 s abandons the conversation.

    The guardian itself recovers after a node crash (so new transactions
    can start), but in-flight transactions are forgotten (§3.5): their
    conversation ports do not survive recovery. *)

open Dcp_wire

val create :
  Dcp_core.Runtime.world ->
  at:Dcp_core.Runtime.node_id ->
  regionals:Port_name.t list ->
  ?request_timeout:Dcp_sim.Clock.time ->
  unit ->
  Port_name.t
