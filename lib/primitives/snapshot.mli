(** Snapshot objects over {!Scd} — the second classic construction of the
    SCD-broadcast paper (specification per Aspnes's notes, PAPERS.md): a set
    of single-writer-ish components updated individually, read atomically
    as a whole.

    [update k v] is the register write; [snapshot ()] broadcasts a sync
    marker and, once it is delivered, replies with the member's {e entire}
    table — an atomic point-in-time view, totally ordered against every
    update by the delivery timestamp order.  A second instance of the
    {!Register.Member} core: it shares the member's {!Register.Table} (and
    its durable ["k:"] mirror, so the same convergence oracle applies), the
    durable at-most-once ["rid:"] request records and the
    [register.malformed] counter, and supplies only its port type and the
    [update]/[snapshot] dispatch.  It is its own guardian definition: a
    snapshot group serves no per-key reads, which is what lets the
    linearizability checker treat register histories per key while
    snapshot histories check whole-state.  Clients use single-attempt calls
    when a history is being recorded. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Clock = Dcp_sim.Clock

val def_name : string
(** ["scd_snapshot"] *)

val create_group :
  Runtime.world ->
  nodes:Runtime.node_id list ->
  ?status_every:Clock.time ->
  ?resend_max:int ->
  introduce_at:Runtime.node_id ->
  unit ->
  Port_name.t list

(** {1 Client helpers} *)

val update :
  Runtime.ctx -> snapshot:Port_name.t -> key:string -> value:Value.t ->
  timeout:Clock.time -> bool

val scan :
  Runtime.ctx -> snapshot:Port_name.t -> timeout:Clock.time ->
  (string * Value.t) list option
(** The atomic whole-table view, key-sorted; [None] on timeout/failure. *)
