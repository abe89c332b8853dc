(** The layer DAG and its dune-graph rules.

    The ranks are [rng < wire, sim < net < stable < core < primitives <
    assoc/bank/airline/office < check < lint] (sim sits beside wire because
    net is built on the simulator's clock).
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

val of_dune_files : (string * string) list -> lib list
(** Parse the [(path, source)] pairs whose path is [lib/<dir>/dune], sorted
    by directory; other pairs are ignored. *)

val graph_findings : lib list -> Finding.t list
(** Unknown layers plus non-descending dune edges. *)
