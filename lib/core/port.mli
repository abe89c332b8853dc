(** Ports: one-directional, typed, buffered gateways into a guardian (§3.2).

    "There can be many ports on a single guardian; each port belongs to a
    guardian, and only processes within that guardian can receive messages
    from it. ...  We assume that ports provide some buffer space so that
    messages may be queued if necessary."

    A port couples a global {!Dcp_wire.Port_name} with a message signature
    (its port type), a bounded FIFO buffer, and the set of processes blocked
    receiving on it.  [enqueue] either hands the message directly to a
    waiting receiver, buffers it, or reports [`Full] — the caller (the
    runtime) then applies §3.4: "if there is no room for the message ... the
    message is thrown away" with a failure notice to the reply port. *)

open Dcp_wire

type t

val create : name:Port_name.t -> ptype:Vtype.port_type -> capacity:int -> t

val name : t -> Port_name.t
val ptype : t -> Vtype.port_type
val queued : t -> int

val waiter_count : t -> int
(** Processes currently registered as blocked receivers on this port.  A
    waiter that resumed via another port or timed out is deregistered
    immediately, so this is bounded by the number of blocked processes
    (observability for tests). *)

val enqueue : t -> Message.t -> [ `Delivered | `Queued | `Full | `Closed ]
(** [`Delivered] means a blocked receiver took the message directly. *)

val close : t -> unit
(** Guardian death / node crash: buffered messages are lost; blocked
    receivers are *not* resumed (their processes are being killed by the
    same event). *)

val reopen : t -> unit
(** Recovery: same name, fresh empty buffer. *)

type outcome = [ `Msg of t * Message.t | `Timeout ]

val receive :
  Dcp_sim.Engine.t -> ports:t list -> timeout:Dcp_sim.Clock.time option -> outcome
(** Blocking receive on a set of ports, earlier ports having priority when
    several hold messages (the paper promises "a way of giving ports
    priority").  Must be called from inside a process.  [timeout:None]
    waits forever; [timeout:(Some 0)] is a non-blocking poll. *)
