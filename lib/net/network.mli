(** The simulated network: best-effort datagram delivery between nodes.

    Implements exactly the delivery contract of §3.4: "The system will
    attempt to deliver the message to the receiving node intact and in good
    condition; the delivery is not guaranteed, but will happen with high
    probability", and "no guarantee about arrival order is made".

    A message (opaque byte string) handed to {!send} is fragmented over the
    MTU, each fragment traverses the pair's {!Link} (where it may be lost,
    duplicated, corrupted or delayed), corrupt fragments are discarded on
    arrival via their CRC, and the destination's handler fires once all
    fragments have been reassembled.  Partitions drop all traffic between
    separated nodes; a down node receives nothing. *)

type node_id = Topology.node_id

type t

type stats = {
  messages_sent : int;
  messages_delivered : int;
  fragments_sent : int;
  fragments_lost : int;
  fragments_corrupted : int;
  fragments_duplicated : int;
  partition_drops : int;
  bytes_sent : int;
}

val create : engine:Dcp_sim.Engine.t -> rng:Dcp_rng.Rng.t -> topology:Topology.t -> t
(** The MTU is a system-wide constant: 1024 payload bytes per fragment.
    Each fragment is charged its link's serialization time independently,
    so simultaneous transfers on one link do not queue behind each other. *)

val topology : t -> Topology.t

val set_handler : t -> node_id -> (src:node_id -> string -> unit) -> unit
(** Install the upcall invoked when a whole message arrives at a node.
    Installing replaces any previous handler. *)

val clear_handler : t -> node_id -> unit
(** A node without a handler silently discards arriving messages (it is
    "down" from the network's point of view). *)

val send : t -> src:node_id -> dst:node_id -> string -> unit
(** Fire-and-forget transmission — the no-wait substrate.  Returns as soon
    as the fragments are scheduled; nothing is reported to the sender,
    matching the paper's send semantics. *)

val partition : t -> node_id list list -> unit
(** Install a partition: nodes in different groups cannot exchange traffic.
    Nodes absent from every group can talk to nobody. Replaces any previous
    partition. *)

val heal : t -> unit
(** Remove the partition. *)

val partitioned : t -> src:node_id -> dst:node_id -> bool

val stats : t -> stats
val reset_stats : t -> unit
