(** The whole lint pass: discovery, one parse per unit, the per-file scan,
    the whole-program protocol analysis, the baseline and the report. *)

type outcome = {
  findings : Finding.t list;  (** everything, sorted, baseline-marked *)
  active : Finding.t list;  (** unbaselined, error tier: these fail the build *)
  warnings : Finding.t list;  (** unbaselined, warning tier *)
  stale_baseline : string list;  (** baseline entries matching nothing *)
  report : Report.json;  (** the [dcp.lint.report/v2] document *)
  dot : string;  (** graphviz export of the message-flow graph *)
}

val analyze : root:string -> units:(string * string) list -> baseline:Baseline.t -> outcome
(** Pure entry point over in-memory [(path, source)] pairs, root-relative.
    [.ml] pairs under [lib/], [bin/] and [examples/] are linted; [.ml]
    pairs under [bench/], [test/] and [perfbench/] only count as users of
    exports; [.mli] pairs supply the exports and seal their modules against
    [mli-missing]; [lib/<dir>/dune] pairs supply the layer table. *)

val run : root:string -> baseline_path:string -> outcome
(** Discover and read every source {!analyze} takes under [root], and
    analyze them against the baseline file. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Human output: active findings as [file:line:col: [rule] message] lines,
    warnings, stale-baseline errors, and a one-line summary. *)
