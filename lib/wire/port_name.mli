(** Global names for ports.

    §3.2: "Ports are the only entities that have global names."  A port name
    identifies the node a guardian lives at, the guardian, and the port's
    index within that guardian, plus a uid making names unforgeable across
    guardian re-creation.  Port names are ordinary values: they may be sent
    in messages, which is how reply ports travel. *)

type t = { node : int; guardian : int; index : int; uid : int }

val make : node:int -> guardian:int -> index:int -> uid:int -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
