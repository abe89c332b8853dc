(** Multi-writer multi-reader atomic registers over {!Scd}, and the SCD
    member core they share with {!Snapshot}.

    The SCD-broadcast construction of an atomic read/write memory (Imbs,
    Mostéfaoui, Perrin, Raynal; specification per Aspnes's notes, PAPERS.md):
    a group of guardians each holds a full copy of a key → value table;

    - [write k v] SCD-broadcasts the write and replies only once the member
      has {e delivered} it (applied it at its place in the group-wide
      timestamp order);
    - [read k] SCD-broadcasts a sync marker and replies with the local value
      once that marker is delivered — the delivery barrier is what rules out
      stale reads and new/old inversions.

    Values win by delivery timestamp (last-writer-wins over {!Scd.ts}, a
    total order), so every member's table converges to the same state
    regardless of how deliveries were grouped into sets.  The table is
    durable: the frontier never re-delivers old sets, so a recovered member
    must come back holding everything it had applied.

    Request execution is at-most-once {e across member crashes}: each
    request id's outcome (or an in-progress marker) is recorded durably
    before any effect, and duplicates — network-duplicated or client-retried
    — either get the recorded reply resent or are dropped while the original
    is still in flight.  Clients that want clean linearizability histories
    still call with [~attempts:1]: a timed-out call has unknown effect and
    must be recorded as pending, never reissued under a fresh id.

    Everything above except the two commands is the {!Member} core; the
    register adds only its port type, its [stale_reads] creation argument
    (persisted under ["cfg:mode"]) and the [write]/[read] dispatch.

    The [stale_reads] mode skips the delivery barrier on both paths:
    writes are acknowledged at broadcast time and reads served directly
    from the local table — a deliberately broken register (the classic
    fast-ack bug) for the [register_mutated] harness self-test, which the
    linearizability oracle must catch. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Clock = Dcp_sim.Clock

val def_name : string
(** ["scd_register"] *)

val metric_malformed : string

(** The shared LWW table core, reused by {!Snapshot}: a volatile
    key → (value, ts) map mirrored durably into the guardian's store under
    ["k:"] keys. *)
module Table : sig
  type t

  val sorted_entries : t -> (string * Value.t * Scd.ts) list
  (** Key-sorted, for deterministic snapshot replies. *)

  val in_store : Dcp_stable.Store.t -> (string * Scd.ts) list
  (** Key-sorted (key, winning ts) shape of a member's durable table — the
      convergence-oracle accessor (value agreement follows from ts
      agreement, as with {!Replica.table_in_store}). *)
end

(** The SCD member core shared by the register and {!Snapshot}: one
    guardian per member, holding a {!Table}, serving requests under the
    durable at-most-once ["rid:"] discipline, parking each request until
    its own broadcast is delivered and answering it from the table at that
    point.  An object supplies only its port type, its extra creation
    arguments and a {!dispatch} from commands to operations. *)
module Member : sig
  type answer = Table.t -> string * Value.t list
  (** The reply (command, args), computed from the member's table. *)

  type op =
    | Deferred of Value.t * answer
        (** Broadcast the payload; answer once this member delivers it. *)
    | Immediate of Value.t option * answer
        (** Broadcast the payload, if any, and answer at once without a
            delivery barrier (the register's [stale_reads] mutation). *)

  type dispatch = string -> Value.t list -> op option
  (** [None] for a command the object does not serve. *)

  val write_payload : key:string -> value:Value.t -> Value.t
  (** Delivering it applies the write to every member's table. *)

  val sync_payload : Value.t
  (** A marker with no effect: the delivery barrier for reads. *)

  val def :
    def_name:string ->
    port_type:Vtype.port_type ->
    init:(Runtime.ctx -> Value.t list -> dispatch) ->
    in_store:(Dcp_stable.Store.t -> dispatch) ->
    Runtime.def
  (** Creation args are [status_every] followed by the
      object's own, which [init] parses (persisting whatever [in_store]
      reads back at recovery) or rejects with [Invalid_argument]. *)

  val create_group :
    Runtime.world ->
    Runtime.def ->
    nodes:Runtime.node_id list ->
    args:Value.t list ->
    introduce_at:Runtime.node_id ->
    Port_name.t list
  (** One member per node, introduced to each other by a bootstrap
      guardian at [introduce_at]; the request ports in [nodes] order. *)
end

val create_group :
  Runtime.world ->
  nodes:Runtime.node_id list ->
  ?status_every:Clock.time ->
  ?stale_reads:bool ->
  introduce_at:Runtime.node_id ->
  unit ->
  Port_name.t list
(** One register member per node, introduced to each other by a bootstrap
    guardian at [introduce_at] (pick a node outside the crash schedule).
    Returns the members' request ports in [nodes] order. *)

(** {1 Client helpers}

    Single-attempt calls (see the module preamble); [None]/[false] covers
    timeout, failure and not-yet-joined members alike. *)

val write :
  Runtime.ctx -> register:Port_name.t -> key:string -> value:Value.t ->
  timeout:Clock.time -> bool

val read :
  Runtime.ctx -> register:Port_name.t -> key:string -> timeout:Clock.time ->
  Value.t option
