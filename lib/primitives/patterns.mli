(** The three message-exchange patterns of §3.

    "Often messages are exchanged in pairs ...  However, not all message
    exchanges have this form.  At least two other patterns can be
    identified.  In the first, several messages are sent from one process
    to another, but only one response message is expected.  In the second,
    the response comes from a different process than the original recipient
    of the request message."

    These helpers express each pattern directly over the no-wait send; the
    E5 experiment counts the messages each needs under each primitive,
    reproducing the paper's argument for choosing no-wait. *)

open Dcp_wire
module Clock = Dcp_sim.Clock

(** {1 Pattern 1: request / response} *)

val request_response :
  Dcp_core.Runtime.ctx ->
  to_:Port_name.t ->
  ?timeout:Clock.time ->
  string ->
  Value.t list ->
  [ `Reply of Dcp_core.Message.t | `Timeout ]
(** One request, one response on a fresh reply port.  Default timeout 1 s. *)

(** {1 Pattern 2: many requests, one response} *)

val stream_then_confirm :
  Dcp_core.Runtime.ctx ->
  to_:Port_name.t ->
  items:(string * Value.t list) list ->
  confirm:string ->
  ?timeout:Clock.time ->
  unit ->
  [ `Confirmed of Dcp_core.Message.t | `Timeout ]
(** Send every item with no reply port (pure no-wait), then a final
    [confirm] message carrying the only reply port; wait for the single
    response.  N+2 messages total where a blocking primitive needs 2N+2. *)

(** {1 Pattern 3: delegated response} *)

val delegate_as :
  Dcp_core.Runtime.ctx ->
  to_:Port_name.t ->
  command:string ->
  args:Value.t list ->
  Dcp_core.Message.t ->
  unit
(** Forward a request to another guardian as [command args], *preserving
    its original reply port*, so the response flows directly from the
    delegate to the original requester — "the response will go directly
    from the flight guardian to the original requesting process, bypassing
    the regional manager" (§3.5).  The forwarder may rewrite the command
    and arguments (the regional manager adds the passenger id it looked
    up, say) or pass the message's own. *)
