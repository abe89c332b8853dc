(** The machine-readable lint report ([dcp.lint.report/v2]).

    Self-contained JSON: a renderer plus a parser covering exactly the
    emitted subset, so the schema round-trips without external
    dependencies (same approach as the bench/check emitters). *)

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

val build :
  root:string ->
  layers:Layers.lib list ->
  units:Proto_flow.unit_sends list ->
  flow:Proto_flow.edge list ->
  call_graph:(string option * string * string) list ->
  findings:Finding.t list ->
  active:Finding.t list ->
  warnings:Finding.t list ->
  stale_baseline:string list ->
  json
(** Assemble the report document: the layer table, per-unit sends and
    handles, the message-flow and call graphs, every finding and a summary.
    [findings] should already be sorted and baseline-marked; [active] and
    [warnings] are its unbaselined error- and warning-tier parts. *)
