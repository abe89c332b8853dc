(** The machine-readable proto-tier report ([dcp.lint.proto/v1]).

    Reuses {!Report.json}, so the document round-trips through
    {!Report.parse}. *)

val build :
  root:string ->
  units:Proto_flow.unit_sends list ->
  flow:Proto_flow.edge list ->
  call_graph:(string option * string * string) list ->
  findings:Finding.t list ->
  stale_baseline:string list ->
  Report.json
(** Assemble the proto report.  [findings] should already be sorted and
    baseline-marked. *)
