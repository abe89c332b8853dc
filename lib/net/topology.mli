(** Topologies: which link a (source, destination) node pair traverses.

    §1.1 assumes only that the network "supports communication between any
    pair of nodes" — it may be shorthaul, longhaul, "or some combination with
    gateways in between; these details are invisible at the programmer
    level".  A topology captures those invisible details as an effective
    per-pair link.  Multi-hop paths are modelled by {!Link.compose}. *)

type node_id = int

type t

val nodes : t -> node_id list

val link : t -> src:node_id -> dst:node_id -> Link.t
(** Effective link for a pair.  A node talking to itself gets a perfect
    link.  @raise Invalid_argument for unknown nodes. *)

(** {1 Builders} *)

val full_mesh : n:int -> Link.t -> t
(** [n] nodes 0..n-1, every distinct pair connected by the given link. *)

val clusters : sizes:int list -> local:Link.t -> long_haul:Link.t -> t
(** LAN clusters joined by gateways: nodes in the same cluster use [local];
    nodes in different clusters traverse [local → long_haul → local]. *)
