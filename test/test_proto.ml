(* The whole-program proto tier: each fixture trips exactly its rule, the
   clean fixture is silent, the proto report round-trips through its
   reader (the fixture document and the whole tree's), and the real tree
   is clean modulo the committed proto baseline. *)

module Finding = Dcp_lint.Finding
module Baseline = Dcp_lint.Baseline
module Report = Dcp_lint.Report
module Proto_report = Dcp_lint.Proto_report
module Proto_driver = Dcp_lint.Proto_driver

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let read_fixture name = read_file (Filename.concat "lint_fixtures" name)

(* Analyze a fixture set as one whole program rooted at fabricated lib
   paths. *)
let analyze names =
  let units = List.map (fun (path, fixture) -> (path, read_fixture fixture)) names in
  Proto_driver.analyze ~root:"." ~units ~baseline:(Baseline.empty ())

let rules_of findings = List.map (fun f -> f.Finding.rule) findings

let has ~rule ?token findings =
  List.exists
    (fun f ->
      String.equal f.Finding.rule rule
      && match token with None -> true | Some t -> String.equal f.Finding.token t)
    findings

let test_dead_letter () =
  let o = analyze [ ("lib/demo/proto_dead_letter.ml", "proto_dead_letter.ml") ] in
  Alcotest.(check bool)
    (Printf.sprintf "peer_vanished is a dead letter (got: %s)"
       (String.concat ", " (rules_of o.Proto_driver.active)))
    true
    (has ~rule:"proto-dead-letter" ~token:"peer_vanished" o.Proto_driver.active);
  Alcotest.(check bool) "the handled ping send is not" false
    (has ~rule:"proto-dead-letter" ~token:"ping" o.Proto_driver.findings);
  (* The graph still records the handled flow. *)
  Alcotest.(check bool) "flow edge present" true (o.Proto_driver.edges <> [])

let test_missing_reply () =
  let o = analyze [ ("lib/demo/proto_missing_reply.ml", "proto_missing_reply.ml") ] in
  Alcotest.(check bool)
    (Printf.sprintf "fetch miss path flagged (got: %s)"
       (String.concat ", " (rules_of o.Proto_driver.active)))
    true
    (has ~rule:"proto-reply-obligation" ~token:"fetch" o.Proto_driver.active)

let test_escape_helper () =
  let o = analyze [ ("lib/demo/proto_escape_helper.ml", "proto_escape_helper.ml") ] in
  Alcotest.(check bool)
    (Printf.sprintf "laundered Bytes payload flagged (got: %s)"
       (String.concat ", " (rules_of o.Proto_driver.active)))
    true
    (has ~rule:"proto-escape" o.Proto_driver.active)

let test_clean () =
  let o = analyze [ ("lib/demo/proto_clean.ml", "proto_clean.ml") ] in
  Alcotest.(check (list string)) "zero findings" []
    (List.map Finding.to_string o.Proto_driver.findings);
  Alcotest.(check (list string)) "zero warnings" []
    (List.map Finding.to_string o.Proto_driver.warnings)

let test_dot_export () =
  let o = analyze [ ("lib/demo/proto_clean.ml", "proto_clean.ml") ] in
  let dot = o.Proto_driver.dot in
  Alcotest.(check bool) "starts with digraph" true
    (String.length dot > 7 && String.equal (String.sub dot 0 7) "digraph");
  let count c = String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 dot in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check bool) "has an edge" true
    (let rec find i =
       i + 1 < String.length dot && (dot.[i] = '-' && dot.[i + 1] = '>' || find (i + 1))
     in
     find 0)

(* A whole program in memory: an interface with used, unused, test-only
   and nested exports, plus a module type whose body is not an export;
   bin/ names values qualified and under [open], test/ the test-only one
   through a module alias, and the unit's own uses do not count. *)
let test_unused_export () =
  let units =
    [
      ( "lib/demo/widget.mli",
        "val used : int -> int\nval opened : int\nval unused : int\nval probe : unit -> unit\n\
         module Inner : sig val deep : int val shallow : int end\n\
         module type S = sig val skipped : int end\n" );
      ( "lib/demo/widget.ml",
        "let used x = x + 1\nlet opened = 2\nlet unused = used 0\nlet probe () = ()\n\
         module Inner = struct let deep = 1 let shallow = unused end\n\
         module type S = sig val skipped : int end\n" );
      ( "bin/app.ml",
        "let () = print_int (Widget.used 1)\nopen Widget\nlet _ = opened + Inner.deep\n" );
      ("test/test_widget.ml", "module W = Widget\nlet () = W.probe ()\n");
    ]
  in
  let o = Proto_driver.analyze ~root:"." ~units ~baseline:(Baseline.empty ()) in
  let flagged =
    List.filter_map
      (fun f ->
        if String.equal f.Finding.rule "unused-export" then
          Some (f.Finding.context ^ "." ^ f.Finding.token)
        else None)
      o.Proto_driver.active
  in
  Alcotest.(check (list string))
    "only the unused values" [ "Widget.unused"; "Widget.Inner.shallow" ] flagged;
  (* Baselining an unused export does not hide it: the entry goes stale. *)
  let path = Filename.temp_file "proto_baseline" ".txt" in
  Baseline.save ~path o.Proto_driver.findings;
  let again = Proto_driver.analyze ~root:"." ~units ~baseline:(Baseline.load ~path) in
  Sys.remove path;
  Alcotest.(check int) "baselined ones stay active" 2 (List.length again.Proto_driver.active);
  Alcotest.(check int) "their entries are stale" 2 (List.length again.Proto_driver.stale_baseline);
  let summary = Report.member "summary" o.Proto_driver.report in
  match Option.bind summary (Report.member "test_only_exports") with
  | Some counts ->
      Alcotest.(check bool) "probe is test-only" true
        (Report.member "demo" counts = Some (Report.Num 1.))
  | None -> Alcotest.fail "summary.test_only_exports missing"

(* The report's document shape: renders and parses back unchanged, names
   its schema and counts active findings. *)
let check_report (o : Proto_driver.outcome) =
  let parsed = Report.parse (Report.render o.Proto_driver.report) in
  Alcotest.(check bool) "render/parse round-trips" true (parsed = o.Proto_driver.report);
  (match Report.member "schema" parsed with
  | Some (Report.Str s) -> Alcotest.(check string) "schema" Proto_report.schema s
  | _ -> Alcotest.fail "schema member missing");
  match Report.member "summary" parsed with
  | Some summary -> (
      match Report.member "active" summary with
      | Some (Report.Num active) ->
          Alcotest.(check int) "active counted"
            (List.length o.Proto_driver.active)
            (int_of_float active)
      | _ -> Alcotest.fail "summary.active missing")
  | None -> Alcotest.fail "summary member missing"

let test_report_roundtrip () =
  check_report (analyze [ ("lib/demo/proto_missing_reply.ml", "proto_missing_reply.ml") ])

(* Walk up from the build sandbox to the real checkout; the in-tree @lint
   alias enforces cleanliness anyway, so skip quietly when not found. *)
let find_repo_root () =
  let rec up dir depth =
    if depth > 8 then None
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir ".git")
      && Sys.file_exists (Filename.concat dir "proto_baseline.txt")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent (depth + 1)
  in
  up (Sys.getcwd ()) 0

let test_tree_clean () =
  match find_repo_root () with
  | None -> ()  (* enforced by `dune build @lint` regardless *)
  | Some root ->
      let o =
        Proto_driver.run ~root ~baseline_path:(Filename.concat root "proto_baseline.txt") ()
      in
      Alcotest.(check (list string)) "no active findings (tree clean modulo baseline)" []
        (List.map Finding.to_string o.Proto_driver.active);
      Alcotest.(check (list string)) "no unbaselined warnings" []
        (List.map Finding.to_string o.Proto_driver.warnings);
      Alcotest.(check (list string)) "no stale proto baseline entries" []
        o.Proto_driver.stale_baseline;
      Alcotest.(check bool) "scanned a real number of units" true
        (o.Proto_driver.units_scanned > 50);
      Alcotest.(check bool) "flow graph is non-trivial" true
        (List.length o.Proto_driver.edges > 20)

(* The whole tree's report, as @proto-dot writes it to _build: the same
   round-trip and schema checks, with a clean tree ([summary.active = 0]). *)
let test_tree_report () =
  match find_repo_root () with
  | None -> ()
  | Some root ->
      let o =
        Proto_driver.run ~root ~baseline_path:(Filename.concat root "proto_baseline.txt") ()
      in
      check_report o;
      Alcotest.(check int) "clean tree" 0 (List.length o.Proto_driver.active)

let tests =
  [
    Alcotest.test_case "dead-letter fixture" `Quick test_dead_letter;
    Alcotest.test_case "missing-reply fixture" `Quick test_missing_reply;
    Alcotest.test_case "escape-through-helper fixture" `Quick test_escape_helper;
    Alcotest.test_case "clean fixture" `Quick test_clean;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "proto report round-trip" `Quick test_report_roundtrip;
    Alcotest.test_case "tree clean modulo proto baseline" `Quick test_tree_clean;
    Alcotest.test_case "tree proto report round-trips" `Quick test_tree_report;
    Alcotest.test_case "unused-export fixture" `Quick test_unused_export;
  ]
