(** Structured event tracing.

    A bounded ring of timestamped, typed events.  The ring stores each event
    as the value the caller recorded — nothing is formatted on the way in —
    and renders it to a [category] and a [detail] line only when it is read
    ({!find}, {!pp}).  Scenarios and tests use traces both for debugging and
    for asserting on the order of distributed happenings (e.g. "the failure
    message arrived after the crash").

    Storage grows on demand: an empty trace holds no slots, the first
    record allocates a small chunk, and each time the chunk fills it
    doubles, up to [capacity].  Once [capacity] events are retained, each
    new record overwrites the oldest one. *)

type 'e t

val create :
  ?capacity:int ->
  category:('e -> string) ->
  detail:(Format.formatter -> 'e -> unit) ->
  unit ->
  'e t
(** Default capacity is 16384 events.  [category] and [detail] render an
    event on read; they are never called by {!record}.
    @raise Invalid_argument if [capacity <= 0]. *)

val record : 'e t -> at:Clock.time -> 'e -> unit

val size : 'e t -> int
(** Events currently retained. *)

val total : 'e t -> int
(** Events ever recorded (including overwritten ones). *)

val events : 'e t -> (Clock.time * 'e) list
(** Retained events, oldest first. *)

val find : 'e t -> category:string -> (Clock.time * 'e) list
(** Retained events whose rendered category is [category], oldest first. *)

val pp : Format.formatter -> 'e t -> unit
(** One [\[at\] category detail] line per retained event, oldest first. *)
