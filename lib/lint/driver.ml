(* The whole lint pass: discover -> parse each unit once -> per-file scan
   and whole-program protocol analysis over the same parsetrees ->
   baseline -> report.  [analyze] is pure over in-memory (path, source)
   pairs so tests can drive it on fixtures without a directory tree;
   [run] feeds it the tree. *)

(* Rules reported but not build-failing: the baseline still grandfathers
   them, and unbaselined ones surface as warnings. *)
let warning_rules = [ "proto-unreachable-handler" ]

(* An API no caller uses, or an option no caller passes, is deleted, never
   grandfathered: a baseline entry for one matches nothing and so fails
   the build as stale. *)
let never_baselined = [ "unused-export"; "unused-optional" ]

(* Never linted: a value reference here only keeps an export alive. *)
let reference_dirs = [ "bench"; "test"; "perfbench" ]

type outcome = {
  findings : Finding.t list;
  active : Finding.t list;
  warnings : Finding.t list;
  stale_baseline : string list;
  report : Report.json;
  dot : string;
}

let is_warning f = List.exists (String.equal f.Finding.rule) warning_rules
let has_ext ext (path, _) = Filename.check_suffix path ext

(* Hygiene: every library module declares its interface.  Implementation
   files without an [.mli] leak representation types across guardian
   boundaries. *)
let missing_mli ~mlis units =
  List.filter_map
    (fun u ->
      let path = u.Proto_extract.u_path in
      let mli = Filename.chop_suffix path ".ml" ^ ".mli" in
      if Option.is_none u.u_lib || List.exists (fun (p, _) -> String.equal p mli) mlis then None
      else
        Some
          (Finding.v ~rule:"mli-missing" ~file:path ~line:1 ~col:0 ~context:"module"
             ~token:(Filename.basename path)
             (Printf.sprintf "library module %s has no .mli interface" path)))
    units

let analyze ~root ~units:pairs ~baseline =
  let mlis = List.filter (has_ext ".mli") pairs in
  let everything =
    List.filter_map
      (fun ((path, source) as pair) ->
        if has_ext ".ml" pair then Some (Proto_extract.load ~path ~source) else None)
      pairs
  in
  let linted u =
    let top = List.hd (String.split_on_char '/' u.Proto_extract.u_path) in
    not (List.exists (String.equal top) reference_dirs)
  in
  let units = List.filter linted everything in
  let layers = Layers.of_dune_files pairs in
  let exports = List.concat_map (fun (path, source) -> Proto_extract.exports ~path ~source) mlis in
  let unused, test_only =
    List.partition
      (fun f -> List.mem f.Finding.rule never_baselined)
      (Proto_summary.unused_exports exports everything)
  in
  let env = Proto_summary.build units in
  let resolved = List.map (fun u -> (u, Proto_summary.collect_sends env u)) units in
  let per_unit =
    List.map (fun (u, (sends, _)) -> { Proto_flow.us_unit = u; us_sends = sends }) resolved
  in
  let handled = Proto_flow.handled_names units in
  let sent = Proto_flow.sent_names per_unit in
  let obligated = Proto_reply.obligated_names units in
  let baselinable =
    Layers.graph_findings layers @ missing_mli ~mlis units
    @ List.concat_map Scan.file units
    @ List.concat_map (fun (_, (_, payloads)) -> payloads) resolved
    @ Proto_flow.dead_letters ~handled per_unit
    @ Proto_flow.unreachable ~sent units
    @ List.concat_map (Proto_reply.check env ~obligated) units
    @ test_only
  in
  Baseline.apply baseline baselinable;
  let findings = List.sort Finding.order (baselinable @ unused) in
  let stale_baseline = Baseline.stale baseline in
  let warnings, active =
    List.partition is_warning (List.filter (fun f -> not f.Finding.baselined) findings)
  in
  let flow = Proto_flow.edges units per_unit in
  let report =
    Report.build ~root ~layers ~units:per_unit ~flow ~call_graph:(Proto_summary.call_edges env)
      ~findings ~active ~warnings ~stale_baseline
  in
  { findings; active; warnings; stale_baseline; report; dot = Proto_flow.dot flow }

let list_dir path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun name -> name.[0] <> '.')
    |> List.sort String.compare
  else []

(* Every lib/<dir>/ is a library (its .ml, .mli and dune files); bin/ and
   examples/ are flat (.ml and .mli); the reference dirs give their .ml
   files.  Readdir order is unspecified, so everything is sorted: the
   analysis order — and therefore the report — is deterministic. *)
let run ~root ~baseline_path =
  let files dir keep =
    List.filter_map
      (fun name -> if keep name then Some (dir ^ "/" ^ name) else None)
      (list_dir (Filename.concat root dir))
  in
  let code name = Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" in
  let libs =
    List.filter (fun d -> Sys.is_directory (Filename.concat root d)) (files "lib" (fun _ -> true))
  in
  let paths =
    List.concat_map (fun d -> files d (fun name -> code name || String.equal name "dune")) libs
    @ List.concat_map (fun d -> files d code) [ "bin"; "examples" ]
    @ List.concat_map (fun d -> files d (fun n -> Filename.check_suffix n ".ml")) reference_dirs
  in
  let read p = In_channel.with_open_bin (Filename.concat root p) In_channel.input_all in
  let units = List.map (fun p -> (p, read p)) paths in
  analyze ~root ~units ~baseline:(Baseline.load ~path:baseline_path)

let pp_outcome ppf t =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) t.active;
  List.iter (fun f -> Format.fprintf ppf "warning: %a@." Finding.pp f) t.warnings;
  List.iter
    (fun key -> Format.fprintf ppf "error: stale baseline entry (fixed? prune it): %s@." key)
    t.stale_baseline;
  let summary name =
    match Option.bind (Report.member "summary" t.report) (Report.member name) with
    | Some (Report.Num n) -> int_of_float n
    | _ -> 0
  in
  Format.fprintf ppf
    "dcp_lint: %d files, %d flow edges, %d findings (%d active, %d warnings, %d baselined)@."
    (summary "files_scanned") (summary "flow_edges") (List.length t.findings)
    (List.length t.active) (List.length t.warnings) (summary "baselined")
