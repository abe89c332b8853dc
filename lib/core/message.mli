(** Messages: a command identifier plus arguments (§3.1).

    "A message consists of a command identifier, and zero or more arguments
    ...  For messages sent to request a service, the command identifier
    corresponds to the name of an operation to be invoked."

    The optional reply port "is really an extra argument of the message, but
    it is singled out in the syntax to clarify the intent of the send"
    (§3.4); here it is singled out as a record field.  [sent_at] timestamps
    the send for latency accounting and travels with the message. *)

open Dcp_wire

type t = {
  command : string;
  args : Value.t list;
  reply_to : Port_name.t option;
  sent_at : Dcp_sim.Clock.time;
}

val make :
  ?reply_to:Port_name.t -> sent_at:Dcp_sim.Clock.time -> string -> Value.t list -> t

val failure : reason:string -> sent_at:Dcp_sim.Clock.time -> t
(** The system-generated [failure(string)] message of §3.4.  Failure
    messages never carry a reply port (no failure cascades). *)

val is_failure : t -> bool

val pp : Format.formatter -> t -> unit

(** {1 Wire envelope}

    On the wire a message travels together with its target port name, as
    the record {!envelope} builds.  The runtime writes and reads it with
    [Codec.encode_envelope]/[Codec.decode_envelope], which produce the
    same bytes without building the record. *)

val envelope : target:Port_name.t -> t -> Value.t

val of_envelope : Value.t -> (Port_name.t * t, string) result
