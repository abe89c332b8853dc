(** The machine-readable proto-tier report ([dcp.lint.proto/v1]).

    Reuses {!Report.json}, so the document round-trips through
    {!Report.parse}. *)

val schema : string

val build :
  root:string ->
  units:Proto_flow.unit_sends list ->
  flow:Proto_flow.edge list ->
  call_graph:(string option * string * string) list ->
  findings:Finding.t list ->
  stale_baseline:string list ->
  test_only:(string * int) list ->
  Report.json
(** Assemble the proto report.  [findings] should already be sorted and
    baseline-marked; [test_only] counts, per library, the exports only
    test/ names. *)
