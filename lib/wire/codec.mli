(** Binary message codec.

    §3.3: "the system can build and decompose messages consisting of objects
    of built-in types", and "within a distributed system, the meaning of a
    type must be fixed and invariant over all the nodes ... the bounds on
    legal integer values must be defined system-wide".

    The codec serialises a {!Value.t} into a compact byte string and back.
    A {!config} fixes the system-wide meaning of types: the signed-integer
    width every node must respect (the paper's 24-bit example), and limits on
    string and total message sizes.  Encoding an out-of-range integer is an
    error — exactly why the paper says "results of integer arithmetic must
    be checked to ensure they are within bounds.  Otherwise it might be
    impossible to send an integer value in a message because it was too
    big." *)

type config = {
  int_bits : int;  (** signed width of transmittable integers, 2..63 *)
  max_string : int;  (** longest transmittable string *)
  max_message : int;  (** largest encoded message body *)
}

val default_config : config
(** 63-bit integers, 1 MiB strings, 4 MiB messages. *)

val config_1979 : config
(** The paper's flavour: 24-bit integers, 4 KiB strings, 64 KiB messages. *)

type error =
  | Int_out_of_bounds of int
  | String_too_long of int
  | Message_too_long of int
  | Malformed of string  (** decode-side: truncated or corrupt input *)

val pp_error : Format.formatter -> error -> unit

exception Codec_error of error

val encode : ?config:config -> Value.t -> (string, error) result
val decode : ?config:config -> string -> (Value.t, error) result

val encode_exn : Value.t -> string
(** {!encode} under {!default_config}.  @raise Codec_error *)

val decode_exn : string -> Value.t
(** {!decode} under {!default_config}.  @raise Codec_error *)

(** {2 The message envelope}

    The runtime frames every message as the record
    [{target; command; args; reply; sent_at}] ([Message.envelope]).  This
    pair writes and reads that record's exact bytes without building a
    {!Value.t} for it, so the wire is the same as {!encode} of the record.
    Every bound of [config] is checked as {!encode} and {!decode} check it. *)

type encoder
(** A scratch buffer reused across calls, with the [config] it encodes
    under: steady-state encoding allocates only the output string. *)

val encoder : ?config:config -> unit -> encoder

val encode_envelope :
  encoder ->
  target:Port_name.t ->
  command:string ->
  args:Value.t list ->
  reply_to:Port_name.t option ->
  sent_at:int ->
  (string, error) result
(** The bytes of {!encode} of the envelope record, or the same error.
    Not reentrant: every call on one [encoder] writes its one scratch
    buffer. *)

val decode_envelope :
  config:config ->
  string ->
  (Port_name.t * string * Value.t list * Port_name.t option * int, error) result
(** [(target, command, args, reply_to, sent_at)] of an envelope that
    {!encode_envelope} wrote, or the error {!decode} would return for its
    bytes.  Any other input, including the envelope's fields in another
    order, is [Malformed]. *)
