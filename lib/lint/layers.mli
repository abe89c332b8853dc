(** The layer DAG and its dune-graph rules.

    Layers are the canonical chain [wire -> net -> stable -> sim -> core ->
    primitives -> apps] from DESIGN.md, refined by the actual dune graph
    (sim sits beside wire because net is built on the simulator's clock).
    Dune dependency edges must point strictly downward; the four guardian
    application libraries share a layer, so any edge between them is a
    back-edge and reported as a guardian-isolation violation. *)

type lib = {
  dir : string;  (** directory short name under [lib/] *)
  lib_name : string;  (** dune library name, e.g. ["dcp_bank"] *)
  deps : string list;  (** raw [(libraries ...)] entries *)
  rank : int;  (** canonical layer, [-1] when unknown *)
}

val is_guardian : string -> bool

val rank_of_dir : string -> int option

val dir_of_lib_name : string -> string option
(** ["dcp_bank"] -> [Some "bank"]; [None] for external library names. *)

val load : root:string -> lib list
(** Parse every [lib/<dir>/dune] under [root], sorted by directory. *)

val graph_findings : lib list -> Finding.t list
(** Unknown layers plus non-descending dune edges. *)
