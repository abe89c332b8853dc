(* The whole-program protocol rules: each fixture trips exactly its rule,
   the clean fixture is silent, the report round-trips through its reader
   (the fixture document and the whole tree's), and the real tree is clean
   modulo the committed baseline. *)

module Finding = Dcp_lint.Finding
module Baseline = Dcp_lint.Baseline
module Report = Dcp_lint.Report
module Driver = Dcp_lint.Driver

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let read_fixture name = read_file (Filename.concat "lint_fixtures" name)

(* Analyze a fixture set as one whole program rooted at fabricated lib
   paths; each fixture gets an empty interface, so mli-missing stays out
   of the way. *)
let analyze names =
  let units =
    List.concat_map
      (fun (path, fixture) ->
        [ (path, read_fixture fixture); (Filename.chop_suffix path ".ml" ^ ".mli", "") ])
      names
  in
  Driver.analyze ~root:"." ~units ~baseline:(Baseline.empty ())

let rules_of findings = List.map (fun f -> f.Finding.rule) findings

(* A count in the report's [summary]. *)
let summary_count (o : Driver.outcome) name =
  match Option.bind (Report.member "summary" o.Driver.report) (Report.member name) with
  | Some (Report.Num n) -> int_of_float n
  | _ -> Alcotest.failf "summary.%s missing" name

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
       (String.concat ", " (rules_of o.Driver.active)))
    true
    (has ~rule:"proto-dead-letter" ~token:"peer_vanished" o.Driver.active);
  Alcotest.(check bool) "the handled ping send is not" false
    (has ~rule:"proto-dead-letter" ~token:"ping" o.Driver.findings);
  (* The graph still records the handled flow. *)
  Alcotest.(check bool) "flow edge present" true (summary_count o "flow_edges" > 0)

let test_missing_reply () =
  let o = analyze [ ("lib/demo/proto_missing_reply.ml", "proto_missing_reply.ml") ] in
  Alcotest.(check bool)
    (Printf.sprintf "fetch miss path flagged (got: %s)"
       (String.concat ", " (rules_of o.Driver.active)))
    true
    (has ~rule:"proto-reply-obligation" ~token:"fetch" o.Driver.active)

let test_escape_helper () =
  let o = analyze [ ("lib/demo/proto_escape_helper.ml", "proto_escape_helper.ml") ] in
  Alcotest.(check bool)
    (Printf.sprintf "laundered Bytes payload flagged (got: %s)"
       (String.concat ", " (rules_of o.Driver.active)))
    true
    (has ~rule:"mutable-payload" o.Driver.active)

let test_clean () =
  let o = analyze [ ("lib/demo/proto_clean.ml", "proto_clean.ml") ] in
  Alcotest.(check (list string)) "zero findings" []
    (List.map (Format.asprintf "%a" Finding.pp) o.Driver.findings);
  Alcotest.(check (list string)) "zero warnings" []
    (List.map (Format.asprintf "%a" Finding.pp) o.Driver.warnings)

let test_dot_export () =
  let o = analyze [ ("lib/demo/proto_clean.ml", "proto_clean.ml") ] in
  let dot = o.Driver.dot in
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
let widget_units ~test_source =
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
    ("test/test_widget.ml", test_source);
  ]

let flagged ~rule findings =
  List.filter_map
    (fun f ->
      if String.equal f.Finding.rule rule then Some (f.Finding.context ^ "." ^ f.Finding.token)
      else None)
    findings

(* The rule's count in the report's [summary.rules]. *)
let rule_total (o : Driver.outcome) rule =
  match
    Option.bind (Report.member "summary" o.Driver.report) (fun s ->
        Option.bind (Report.member "rules" s) (fun r ->
            Option.bind (Report.member rule r) (Report.member "total")))
  with
  | Some (Report.Num n) -> int_of_float n
  | _ -> Alcotest.failf "summary.rules[%s].total missing" rule

let test_unused_export () =
  let units = widget_units ~test_source:"module W = Widget\nlet () = W.probe ()\n" in
  let o = Driver.analyze ~root:"." ~units ~baseline:(Baseline.empty ()) in
  Alcotest.(check (list string))
    "only the unused values" [ "Widget.unused"; "Widget.Inner.shallow" ]
    (flagged ~rule:"unused-export" o.Driver.active);
  (* A value only test/ names is exactly one test-only-export finding. *)
  Alcotest.(check (list string))
    "probe is test-only" [ "Widget.probe" ]
    (flagged ~rule:"test-only-export" o.Driver.active);
  Alcotest.(check int) "the report counts it" 1 (rule_total o "test-only-export");
  (* Baselining an unused export does not hide it: the entry goes stale.
     Baselining the test-only one does. *)
  let path = Filename.temp_file "lint_baseline" ".txt" in
  Baseline.save ~path o.Driver.findings;
  let again = Driver.analyze ~root:"." ~units ~baseline:(Baseline.load ~path) in
  Alcotest.(check (list string))
    "baselined unused ones stay active" [ "Widget.unused"; "Widget.Inner.shallow" ]
    (flagged ~rule:"unused-export" again.Driver.active);
  Alcotest.(check (list string))
    "the baselined test-only one is inactive" []
    (flagged ~rule:"test-only-export" again.Driver.active);
  Alcotest.(check int) "the unused ones' entries are stale" 2
    (List.length again.Driver.stale_baseline);
  (* Dropping the test's use turns probe into an unused export, which the
     baseline cannot hide, and leaves its test-only entry stale. *)
  let unused_now = widget_units ~test_source:"let () = ()\n" in
  let dropped = Driver.analyze ~root:"." ~units:unused_now ~baseline:(Baseline.load ~path) in
  Sys.remove path;
  Alcotest.(check (list string))
    "probe is now unused" [ "Widget.unused"; "Widget.probe"; "Widget.Inner.shallow" ]
    (flagged ~rule:"unused-export" dropped.Driver.active);
  Alcotest.(check bool) "its test-only entry is stale" true
    (List.mem "test-only-export lib/demo/widget.mli Widget/probe"
       dropped.Driver.stale_baseline)

(* An interface whose [make] has three options: bin/ passes [~size], a
   test passes [?depth] to the opened module (tests count), and only the
   unit itself passes [~color], which does not count. *)
let gadget_units =
  [
    ("lib/demo/gadget.mli", "val make : ?size:int -> ?color:string -> ?depth:int -> unit -> int\n");
    ( "lib/demo/gadget.ml",
      "let make ?(size = 1) ?(color = \"\") ?(depth = 0) () = size + String.length color + depth\n\
       let red = make ~color:\"red\" ()\n" );
    ("bin/app.ml", "let () = print_int (Gadget.make ~size:2 ())\n");
    ("test/test_gadget.ml", "open Gadget\nlet _ = make ?depth:(Some 3) ()\n");
  ]

let test_unused_optional () =
  let o = Driver.analyze ~root:"." ~units:gadget_units ~baseline:(Baseline.empty ()) in
  Alcotest.(check (list string))
    "only the option no other unit passes" [ "Gadget.make.?color" ]
    (flagged ~rule:"unused-optional" o.Driver.active);
  (* A baseline entry does not hide it: the finding stays active and the
     entry goes stale. *)
  let path = Filename.temp_file "lint_baseline" ".txt" in
  Baseline.save ~path o.Driver.findings;
  let again = Driver.analyze ~root:"." ~units:gadget_units ~baseline:(Baseline.load ~path) in
  Sys.remove path;
  Alcotest.(check (list string))
    "baselined, still active" [ "Gadget.make.?color" ]
    (flagged ~rule:"unused-optional" again.Driver.active);
  Alcotest.(check (list string))
    "its entry is stale" [ "unused-optional lib/demo/gadget.mli Gadget.make/?color" ]
    again.Driver.stale_baseline

(* The report's document shape: renders and parses back unchanged, names
   its schema and counts active findings. *)
let check_report (o : Driver.outcome) =
  let parsed = Report.parse (Report.render o.Driver.report) in
  Alcotest.(check bool) "render/parse round-trips" true (parsed = o.Driver.report);
  (match Report.member "schema" parsed with
  | Some (Report.Str s) -> Alcotest.(check string) "schema" "dcp.lint.report/v2" s
  | _ -> Alcotest.fail "schema member missing");
  match Report.member "summary" parsed with
  | Some summary -> (
      match Report.member "active" summary with
      | Some (Report.Num active) ->
          Alcotest.(check int) "active counted"
            (List.length o.Driver.active)
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
      && Sys.file_exists (Filename.concat dir "lint_baseline.txt")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent (depth + 1)
  in
  up (Sys.getcwd ()) 0

(* The tree's outcome, shared by the two tree cases. *)
let tree =
  lazy
    (Option.map
       (fun root -> Driver.run ~root ~baseline_path:(Filename.concat root "lint_baseline.txt"))
       (find_repo_root ()))

let test_tree_clean () =
  match Lazy.force tree with
  | None -> ()  (* enforced by `dune build @lint` regardless *)
  | Some o ->
      Alcotest.(check (list string)) "no active findings (tree clean modulo baseline)" []
        (List.map (Format.asprintf "%a" Finding.pp) o.Driver.active);
      Alcotest.(check (list string)) "no unbaselined warnings" []
        (List.map (Format.asprintf "%a" Finding.pp) o.Driver.warnings);
      Alcotest.(check (list string)) "no stale baseline entries" [] o.Driver.stale_baseline;
      Alcotest.(check bool) "scanned a real number of units" true
        (summary_count o "files_scanned" > 50);
      Alcotest.(check bool) "flow graph is non-trivial" true (summary_count o "flow_edges" > 20)

(* The whole tree's report, as @lint writes it to _build: the same
   round-trip and schema checks, with a clean tree ([summary.active = 0]). *)
let test_tree_report () =
  match Lazy.force tree with
  | None -> ()
  | Some o ->
      check_report o;
      Alcotest.(check int) "clean tree" 0 (List.length o.Driver.active)

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
    Alcotest.test_case "unused-optional fixture" `Quick test_unused_optional;
  ]
