(** Orchestration of the whole-program proto tier. *)

type outcome = {
  findings : Finding.t list;  (** all, sorted, baseline-marked *)
  active : Finding.t list;  (** unbaselined, error tier *)
  warnings : Finding.t list;  (** unbaselined, warning tier *)
  stale_baseline : string list;
  units_scanned : int;
  edges : Proto_flow.edge list;
  report : Report.json;
  dot : string;  (** graphviz export of [edges] *)
}

val analyze :
  root:string -> units:(string * string) list -> baseline:Baseline.t -> outcome
(** Pure entry point over in-memory [(path, source)] pairs — the fixture
    tests drive this directly.  [.mli] pairs supply the exports checked by
    [unused-export]; [.ml] pairs under {!Driver.reference_dirs} only count
    as users of them. *)

val run : ?dirs:string list -> root:string -> baseline_path:string -> unit -> outcome
(** Discover sources under [dirs] (default {!Driver.default_dirs}) plus the
    reference-only [.ml]s, and analyze them against the proto baseline
    file. *)

val pp_outcome : Format.formatter -> outcome -> unit
