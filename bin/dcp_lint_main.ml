(* Paper-invariant and determinism static analysis over the tree:

     dcp_lint.exe [--root DIR] [--dirs a,b,c] [--baseline FILE]
                  [--proto-baseline FILE] [--json FILE] [--proto-json FILE]
                  [--dot FILE] [--update-baseline] [--quiet]
     dcp_lint.exe --explain RULE

   Runs both analysis tiers: the per-file scan (isolation, layer DAG,
   transmittability, determinism, hygiene) and the whole-program proto
   tier (message-flow graph, dead letters, reply obligations,
   interprocedural escapes, unused and test-only exports).

   Exit 0 when every finding is baselined and no baseline entry is stale,
   1 when active findings or stale baseline entries remain, 2 on usage or
   internal errors.  `--update-baseline` rewrites both baselines to cover
   every current finding (review the diff before committing — that is the
   documented path for accepting a new grandfathered finding). *)

module Driver = Dcp_lint.Driver
module Proto_driver = Dcp_lint.Proto_driver
module Baseline = Dcp_lint.Baseline
module Report = Dcp_lint.Report
module Finding = Dcp_lint.Finding

let usage () =
  prerr_endline
    "usage: dcp_lint.exe [--root DIR] [--dirs a,b,c] [--baseline FILE]\n\
    \       [--proto-baseline FILE] [--json FILE] [--proto-json FILE] [--dot FILE]\n\
    \       [--update-baseline] [--quiet]\n\
    \       dcp_lint.exe --explain RULE";
  exit 2

let explain rule =
  match Finding.explain rule with
  | Some doc ->
      Printf.printf "%s: %s\n" rule doc;
      exit 0
  | None ->
      Printf.eprintf "dcp_lint: unknown rule %S; known rules:\n" rule;
      List.iter (fun (r, _, _) -> Printf.eprintf "  %s\n" r) Finding.rules;
      exit 2

(* The graphviz export is consumed by `dot`; a malformed or empty file
   should fail the @proto-dot alias, so sanity-check before writing. *)
let check_dot dot =
  let balanced =
    let depth = ref 0 in
    let ok = ref true in
    String.iter
      (fun c ->
        match c with
        | '{' -> incr depth
        | '}' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
      dot;
    !ok && !depth = 0
  in
  if String.length dot = 0 then failwith "empty dot export";
  if not (String.length dot >= 7 && String.equal (String.sub dot 0 7) "digraph") then
    failwith "dot export does not start with 'digraph'";
  if not balanced then failwith "unbalanced braces in dot export"

let () =
  let root = ref "." in
  let dirs = ref Driver.default_dirs in
  let baseline_path = ref "lint_baseline.txt" in
  let proto_baseline_path = ref "proto_baseline.txt" in
  let json_path = ref None in
  let proto_json_path = ref None in
  let dot_path = ref None in
  let update = ref false in
  let quiet = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--root" :: v :: rest ->
        root := v;
        parse_args rest
    | "--dirs" :: v :: rest ->
        dirs := String.split_on_char ',' v;
        parse_args rest
    | "--baseline" :: v :: rest ->
        baseline_path := v;
        parse_args rest
    | "--proto-baseline" :: v :: rest ->
        proto_baseline_path := v;
        parse_args rest
    | "--json" :: v :: rest ->
        json_path := Some v;
        parse_args rest
    | "--proto-json" :: v :: rest ->
        proto_json_path := Some v;
        parse_args rest
    | "--dot" :: v :: rest ->
        dot_path := Some v;
        parse_args rest
    | "--explain" :: rule :: rest ->
        if rest <> [] then usage ();
        explain rule
    | "--update-baseline" :: rest ->
        update := true;
        parse_args rest
    | "--quiet" :: rest ->
        quiet := true;
        parse_args rest
    | _ -> usage ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let in_root p = if Filename.is_relative p then Filename.concat !root p else p in
  let baseline_path = in_root !baseline_path in
  let proto_baseline_path = in_root !proto_baseline_path in
  let outcome, proto =
    try
      ( Driver.run ~dirs:!dirs ~root:!root ~baseline_path (),
        Proto_driver.run ~dirs:!dirs ~root:!root ~baseline_path:proto_baseline_path () )
    with exn ->
      Printf.eprintf "dcp_lint: %s\n" (Printexc.to_string exn);
      exit 2
  in
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  (match !json_path with
  | None -> ()
  | Some path -> write path (Report.render outcome.Driver.report));
  (match !proto_json_path with
  | None -> ()
  | Some path -> write path (Report.render proto.Proto_driver.report));
  (match !dot_path with
  | None -> ()
  | Some path -> (
      try
        check_dot proto.Proto_driver.dot;
        write path proto.Proto_driver.dot
      with exn ->
        Printf.eprintf "dcp_lint: %s\n" (Printexc.to_string exn);
        exit 2));
  if !update then begin
    Baseline.save ~path:baseline_path outcome.Driver.findings;
    Baseline.save ~path:proto_baseline_path proto.Proto_driver.findings;
    if not !quiet then
      Printf.printf "dcp_lint: wrote %d + %d baseline entries to %s, %s\n"
        (List.length
           (List.sort_uniq String.compare (List.map Finding.key outcome.Driver.findings)))
        (List.length
           (List.sort_uniq String.compare (List.map Finding.key proto.Proto_driver.findings)))
        baseline_path proto_baseline_path
  end
  else begin
    (* --quiet silences the all-clear summaries only; active findings and
       stale baseline entries must always reach the build log. *)
    let tier1_bad = outcome.Driver.active <> [] || outcome.Driver.stale_baseline <> [] in
    let proto_bad = proto.Proto_driver.active <> [] || proto.Proto_driver.stale_baseline <> [] in
    if (not !quiet) || tier1_bad then Format.printf "%a@?" Driver.pp_outcome outcome;
    if (not !quiet) || proto_bad then Format.printf "%a@?" Proto_driver.pp_outcome proto;
    if tier1_bad || proto_bad then exit 1
  end
