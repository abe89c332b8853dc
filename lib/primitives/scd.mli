(** SCD-broadcast: Set-Constrained Delivery broadcast over no-wait send.

    The abstraction of Imbs, Mostéfaoui, Perrin and Raynal (PAPERS.md):
    processes broadcast messages and deliver {e sets} of messages such that

    - {b Containment/Integrity}: the sets delivered at one process partition
      a subset of the broadcast messages — no duplicates, no inventions;
    - {b MS-Ordering}: no two processes deliver two messages in opposite
      set-orders (if p delivers m strictly before m', no q delivers m'
      strictly before m);
    - {b Termination}: every broadcast by a correct (eventually-recovered)
      member is eventually delivered everywhere, and every delivered message
      is delivered at every member.

    The implementation is a Lamport-frontier construction: every message
    carries a (clock, origin) timestamp, members exchange periodic status
    messages announcing their clock and per-origin contiguous-receive and
    durable delivered watermarks, and a member delivers — as one set —
    everything up to the minimum clock all members have announced safe.
    Receive watermarks drive origin resends; the delivered watermarks —
    monotone across the announcer's crashes — bound own-log pruning, so a
    recovering member can always be refilled.  This actually yields
    totally ordered sets (stronger than SCD requires), which is what the
    register layer above exploits; lost messages are recovered by their
    origin resending on status evidence, so termination holds under the
    crash-{e recovery} model (a member that crashes forever can block the
    frontier — the same liveness caveat as two-phase commit in §3.5).

    An [Scd.t] is embedded inside a guardian: the guardian splices
    {!signatures} into its port type, feeds every received message through
    {!handle}, and pulls newly delivered sets with {!drain}.  All state a
    restart must not lose (clock, own sequence number, delivery frontier,
    per-origin delivered watermarks, the member list, and the member's own
    message log for resends) is persisted in the guardian's stable store
    under ["scd:"] keys; reorder buffers are volatile and refill via
    resends. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Clock = Dcp_sim.Clock

type config = { status_every : Clock.time  (** status gossip period *) }
(** A member resends at most 32 of its own messages per received status. *)

type msg_id = { origin : int; seq : int }
(** Identity of a broadcast: the member index that minted it and its
    per-origin sequence number (1-based, contiguous). *)

type ts = int * int
(** Delivery timestamp (Lamport clock, origin index): a unique total order
    over all broadcasts of a group. *)

val ts_compare : ts -> ts -> int

type delivery = { id : msg_id; ts : ts; payload : Value.t }

type t

val signatures : Vtype.signature list
(** The [scd_msg] and [scd_status] signatures to splice into the embedding
    guardian's port type. *)

val create : Runtime.ctx -> ?config:config -> members:Port_name.t list -> unit -> t
(** Join a group: [members] are the request ports of every member
    (including this guardian's own port 0).  Members are sorted internally
    so all of them agree on origin indices.
    @raise Invalid_argument if own port 0 is not among [members]. *)

val recover : Runtime.ctx -> t option
(** Rebuild from the stable store after a crash; [None] if this guardian
    never joined a group (no ["scd:members"] key). *)

val broadcast : Runtime.ctx -> t -> Value.t -> msg_id
(** Timestamp a payload, append it to the durable own-message log, send it
    to every other member (no-wait) and enqueue it locally.  Delivery —
    including self-delivery — is only ever observed through {!drain}. *)

val handle : Runtime.ctx -> t -> Dcp_core.Message.t -> [ `Handled | `Unrelated ]
(** Feed one received message through the protocol.  [`Unrelated] means the
    command is not an SCD message and the caller should interpret it.
    Malformed SCD messages are dropped and counted, never raised. *)

val drain : t -> delivery list list
(** Newly delivered sets since the last drain, oldest first; each set is
    sorted by {!ts}.  Sets are never re-delivered (the frontier is durable),
    so the caller must apply them to durable state before yielding. *)

val spawn_ticker : Runtime.ctx -> t -> unit
(** Send one status round to every other member every
    [config.status_every], phase-staggered deterministically from the world
    RNG split. *)

val introduce :
  Runtime.world -> group:string -> at:Runtime.node_id -> members:Port_name.t list -> unit
(** Bootstrap helper: register and start a ["<group>_bootstrap"] guardian at
    node [at] that repeatedly offers the full member list to every member
    (["members"] request, ["members_ok"] reply, pinned request ids) until
    each has acknowledged, riding out crash-restart cycles.
    @raise Invalid_argument if the group was already introduced. *)

val members_signature : Vtype.signature
(** The ["members"] join RPC served by guardians embedding an SCD member. *)

val persist_group_config : Runtime.ctx -> config -> unit
(** Persist the SCD config before the group is joined, so a member that
    crashes pre-join comes back with the configured cadence. *)

val config_in_store : Dcp_stable.Store.t -> config
(** The persisted config, or the default (status every 100 ms) when
    absent/garbled. *)

val parse_members : Value.t list -> Port_name.t list option
(** Strict parse of the ["members"] request's port-list argument. *)

(** {1 Observability} *)

val self : t -> int
(** This member's origin index. *)

val metric_msgs : string
val metric_malformed : string
val metric_sets : string
