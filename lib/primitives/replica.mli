(** Distributed simultaneous update: replicated registers with anti-entropy.

    §3's first example of the protocols the chosen primitive must express
    is "distributed simultaneous updates" — several nodes accepting writes
    to the same logical datum concurrently.  This module implements the
    classic timestamp solution of that literature: every write is stamped
    with a Lamport clock paired with the origin's id; each replica keeps
    the value with the lexicographically largest stamp (last-writer-wins),
    gossips accepted writes to a small deterministic fanout of peers, and
    runs periodic anti-entropy so replicas that missed an update (lost
    message, crash) converge.

    Anti-entropy is a digest/diff/pull exchange over byte-budgeted key
    windows (see {!Reconcile} for the pure half and DESIGN.md §11 for the
    protocol): each tick a replica sends the digest of one window to
    [fanout] peers chosen from its split of the world RNG; the receiver
    answers with [sync_delta] for keys it holds newer and [sync_pull] for
    keys the sender holds newer or the receiver lacks.  Every sync message
    is packed under a configurable byte budget (Codec encoded size,
    32 KiB default), with a cursor carrying reconciliation across rounds
    when the table is bigger than one message.

    Port (RPC convention):
    {v
    write(key, value)            replies (written(stamp))
    read(key)                    replies (value(v, stamp), unknown_key)
    join(peer_ports)             replies (joined)        -- setup, idempotent
    gossip(key, value, stamp)                            -- replica to replica
    sync_digest(lo, hi?, entries)                        -- anti-entropy offer
    sync_pull(keys)                                      -- request newer entries
    sync_delta(entries)                                  -- stamped values
    v}

    Malformed replica-to-replica messages (semantically invalid stamps,
    bad windows, non-port peers) are dropped and counted on the
    [replica.malformed] metric — never raised, per §3.4's best-effort
    delivery.  Replicas recover after a node crash with their membership
    and sync configuration (stable store) but an empty table: the data is
    soft state that anti-entropy refills, and the recovering replica
    adopts the largest Lamport counter its peers claim before accepting
    new writes. *)

open Dcp_wire

val def_name : string
val port_type : Vtype.port_type

val create_group :
  Dcp_core.Runtime.world ->
  nodes:Dcp_core.Runtime.node_id list ->
  ?sync_every:Dcp_sim.Clock.time ->
  ?fanout:int ->
  ?byte_budget:int ->
  unit ->
  Port_name.t list
(** Create one replica guardian at each node and introduce them to each
    other.  [sync_every] is the anti-entropy period (default 500 ms);
    [fanout] is how many peers each tick's digest goes to (default 2);
    [byte_budget] bounds every sync message's encoded payload (default
    {!Reconcile.default_budget}).  Returns the replicas' request ports, in
    node order. *)

(** {1 Client helpers} *)

val write :
  Dcp_core.Runtime.ctx ->
  replica:Port_name.t ->
  key:string ->
  value:Value.t ->
  timeout:Dcp_sim.Clock.time ->
  bool
(** Write through one replica; [true] on acknowledgement.  Callers needing
    run-to-run determinism (check scenarios) should issue the RPC
    themselves with a pinned [request_id] — generated ids draw from a
    process-global counter. *)

val read :
  Dcp_core.Runtime.ctx ->
  replica:Port_name.t ->
  key:string ->
  timeout:Dcp_sim.Clock.time ->
  Value.t option

(** {1 Observability}

    Store accessors for oracles and tests (the bank/airline convention:
    guardians mirror oracle-visible state into their stable store; harness
    code reads it through {!Dcp_core.Runtime.guardian_store}). *)

val table_in_store : Dcp_stable.Store.t -> (string * Reconcile.stamp) list
(** The replica's key → stamp table as mirrored in its store, sorted by
    key.  Convergence means: equal on every live replica. *)

val peers_in_store : Dcp_stable.Store.t -> Port_name.t list
(** The persisted membership (what a recovering replica rejoins with). *)

(** {1 Metric names} *)

val metric_malformed : string
val metric_sync_msgs : string
val metric_sync_bytes : string
val metric_over_budget : string
val metric_max_bytes : string
