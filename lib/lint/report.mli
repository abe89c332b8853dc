(** The machine-readable lint report ([dcp.lint.report/v1]).

    Self-contained JSON: a renderer plus a parser covering exactly the
    emitted subset, so the schema round-trips without external
    dependencies (same approach as the bench/check emitters). *)

val schema : string

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val render : json -> string

exception Parse_error of string

val parse : string -> json
(** Raises {!Parse_error} on malformed input. *)

val member : string -> json -> json option

val of_finding : Finding.t -> json
(** Shared with the proto-tier report ([Proto_report]). *)

val rule_summary : Finding.tier -> Finding.t list -> json
(** Total and active findings per rule, for the rules [tier] runs; shared
    with [Proto_report]. *)

val build :
  root:string ->
  files_scanned:int ->
  layers:Layers.lib list ->
  findings:Finding.t list ->
  stale_baseline:string list ->
  json
(** Assemble the report document.  [findings] should already be sorted and
    baseline-marked; layers are re-sorted by (rank, dir). *)
