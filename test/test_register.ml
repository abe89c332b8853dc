(* Atomic registers and snapshot objects over SCD-broadcast: directed
   end-to-end tests (barriered reads, crash durability, at-most-once
   request records, table convergence) plus the harness self-test — the
   register_mutated scenario must be caught by the linearizability oracle
   and shrink to a small counterexample, mirroring bank_mutated. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Register = Dcp_primitives.Register
module Snapshot = Dcp_primitives.Snapshot
module Scd = Dcp_primitives.Scd
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock
module Metrics = Dcp_sim.Metrics
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link
module Store = Dcp_stable.Store
module Check = Dcp_check
module Scenario = Dcp_check.Scenario
module Scenarios = Dcp_check.Scenarios

let scenario name =
  match Scenarios.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

let members = 3

let make_world ?(seed = 91) () =
  Runtime.create_world ~seed ~topology:(Topology.full_mesh ~n:(members + 1) Link.lan) ()

let driver =
  let i = ref 0 in
  fun world ~at body ->
    incr i;
    let name = Printf.sprintf "register_driver_%d" !i in
    let def =
      { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
    in
    Runtime.register_def world def;
    ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

let make_group ?(stale_reads = false) world =
  Array.of_list
    (Register.create_group world ~nodes:(List.init members Fun.id) ~stale_reads
       ~introduce_at:members ())

let timeout = Clock.s 2

let test_write_then_read_cross_member () =
  let world = make_world () in
  let ports = make_group world in
  let observed = ref None in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      let wrote =
        Register.write ctx ~register:ports.(0) ~key:"a" ~value:(Value.int 7) ~timeout
      in
      Alcotest.(check bool) "write acknowledged" true wrote;
      (* The ack implies delivery group-wide order; a barriered read at
         another member must observe it. *)
      observed := Register.read ctx ~register:ports.(2) ~key:"a" ~timeout);
  Runtime.run_for world (Clock.s 20);
  Alcotest.(check (option string))
    "cross-member read sees the acked write" (Some "7")
    (Option.map Value.to_string !observed)

let test_unknown_key () =
  let world = make_world () in
  let ports = make_group world in
  let observed = ref (Some (Value.int 0)) in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      observed := Register.read ctx ~register:ports.(1) ~key:"never-written" ~timeout);
  Runtime.run_for world (Clock.s 20);
  Alcotest.(check bool) "unknown key reads as absent" true (!observed = None)

let test_last_writer_wins_and_convergence () =
  let world = make_world () in
  let ports = make_group world in
  let final = ref None in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      (* Writes through different members; delivery order decides. *)
      ignore (Register.write ctx ~register:ports.(0) ~key:"k" ~value:(Value.int 1) ~timeout);
      ignore (Register.write ctx ~register:ports.(1) ~key:"k" ~value:(Value.int 2) ~timeout);
      ignore (Register.write ctx ~register:ports.(2) ~key:"k" ~value:(Value.int 3) ~timeout);
      final := Register.read ctx ~register:ports.(0) ~key:"k" ~timeout);
  Runtime.run_for world (Clock.s 20);
  Alcotest.(check (option string))
    "sequential writes end on the last value" (Some "3")
    (Option.map Value.to_string !final);
  (* Every member's durable table must agree exactly. *)
  let tables =
    Runtime.find_guardians world ~def_name:Register.def_name
    |> List.map (fun g -> Register.Table.in_store (Runtime.guardian_store g))
  in
  Alcotest.(check int) "all members inspected" members (List.length tables);
  match tables with
  | [] -> Alcotest.fail "no member tables"
  | first :: rest ->
      List.iter
        (fun other ->
          Alcotest.(check bool) "durable tables identical" true (first = other))
        rest

let test_crash_recovery_durability () =
  let world = make_world () in
  let ports = make_group world in
  let reread = ref None in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      ignore (Register.write ctx ~register:ports.(1) ~key:"d" ~value:(Value.int 11) ~timeout));
  Runtime.run_for world (Clock.s 5);
  (* Kill every member node; recovery must rebuild clock, frontier and
     table from the stores alone. *)
  for node = 0 to members - 1 do
    Runtime.crash_node world node
  done;
  Runtime.run_for world (Clock.ms 100);
  for node = 0 to members - 1 do
    Runtime.restart_node world node
  done;
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 500);
      reread := Register.read ctx ~register:ports.(0) ~key:"d" ~timeout);
  Runtime.run_for world (Clock.s 20);
  Alcotest.(check (option string))
    "write survives a full-group crash" (Some "11")
    (Option.map Value.to_string !reread)

let test_duplicate_rid_not_reexecuted () =
  let world = make_world () in
  let ports = make_group world in
  let replies = ref [] in
  let ts_after_first = ref [] in
  let ts_after_dup = ref [] in
  let member_tables () =
    Runtime.find_guardians world ~def_name:Register.def_name
    |> List.map (fun g -> Register.Table.in_store (Runtime.guardian_store g))
  in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      let call () =
        match
          Rpc.call ctx ~to_:ports.(0) ~timeout ~attempts:1 ~request_id:4_200_000_001 "write"
            [ Value.str "r"; Value.int 5 ]
        with
        | Rpc.Reply (cmd, _) -> replies := cmd :: !replies
        | Rpc.Failure_msg _ | Rpc.Timeout -> replies := "timeout" :: !replies
      in
      call ();
      ts_after_first := member_tables ();
      (* A client retry of the same request id must get the recorded reply
         back without a second broadcast — a fresh timestamp here is the
         double-apply that breaks atomicity. *)
      call ();
      Runtime.sleep ctx (Clock.s 2);
      ts_after_dup := member_tables ());
  Runtime.run_for world (Clock.s 20);
  Alcotest.(check (list string)) "both calls acknowledged" [ "written"; "written" ] !replies;
  Alcotest.(check bool) "duplicate left every timestamp unchanged" true
    (!ts_after_first = !ts_after_dup)

let test_snapshot_atomic_view () =
  let world = make_world () in
  let ports =
    Array.of_list
      (Snapshot.create_group world ~nodes:(List.init members Fun.id) ~introduce_at:members ())
  in
  let view = ref None in
  driver world ~at:members (fun ctx ->
      Runtime.sleep ctx (Clock.ms 300);
      ignore (Snapshot.update ctx ~snapshot:ports.(0) ~key:"x" ~value:(Value.int 1) ~timeout);
      ignore (Snapshot.update ctx ~snapshot:ports.(1) ~key:"y" ~value:(Value.int 2) ~timeout);
      view := Snapshot.scan ctx ~snapshot:ports.(2) ~timeout);
  Runtime.run_for world (Clock.s 20);
  match !view with
  | None -> Alcotest.fail "snapshot timed out"
  | Some entries ->
      Alcotest.(check (list (pair string string)))
        "scan sees both updates, key-sorted"
        [ ("x", "1"); ("y", "2") ]
        (List.map (fun (k, v) -> (k, Value.to_string v)) entries)

(* ---- the harness self-test, mirroring test_check's bank_mutated ---- *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let profile name =
  match Check.Profile.find name with
  | Some p -> p
  | None -> Alcotest.failf "unknown profile %s" name

let test_register_mutation_detected () =
  let outcome =
    Scenario.execute (scenario "register_mutated") ~seed:1 ~profile:(profile "lan") ()
  in
  match Scenario.fail_reason outcome with
  | None -> Alcotest.fail "barrier-free register passed the oracles: the checker is blind"
  | Some reason ->
      Alcotest.(check bool)
        "failure implicates the linearizability oracle" true
        (contains ~affix:"linearizable" reason)

let test_register_honest_twin_passes () =
  let outcome = Scenario.execute (scenario "register") ~seed:1 ~profile:(profile "lan") () in
  match Scenario.fail_reason outcome with
  | None -> ()
  | Some reason -> Alcotest.failf "honest register scenario failed: %s" reason

let test_register_mutation_shrinks () =
  match
    Check.Shrink.run (scenario "register_mutated") ~seed:1 ~profile:(profile "lan") ~budget:60 ()
  with
  | Error e -> Alcotest.failf "nothing to shrink: %s" e
  | Ok cx ->
      Alcotest.(check bool) "some shrink step accepted" true (cx.Check.Shrink.accepted > 0);
      Alcotest.(check bool) "workload minimised" true (cx.Check.Shrink.workload <= 24);
      let replay =
        Scenario.execute (scenario "register_mutated") ~seed:cx.Check.Shrink.seed
          ~profile:(profile cx.Check.Shrink.profile)
          ~horizon:cx.Check.Shrink.horizon ~workload:cx.Check.Shrink.workload
          ~intensity:cx.Check.Shrink.intensity ()
      in
      (match Scenario.fail_reason replay with
      | Some _ -> ()
      | None -> Alcotest.fail "shrunk counterexample does not reproduce");
      Alcotest.(check bool)
        "replay hint names the scenario" true
        (contains ~affix:"--scenario register_mutated"
           (Format.asprintf "%a" Check.Shrink.pp cx))

let tests =
  [
    Alcotest.test_case "write then cross-member read" `Quick test_write_then_read_cross_member;
    Alcotest.test_case "unknown key" `Quick test_unknown_key;
    Alcotest.test_case "last writer wins; tables converge" `Quick
      test_last_writer_wins_and_convergence;
    Alcotest.test_case "writes survive a full-group crash" `Quick test_crash_recovery_durability;
    Alcotest.test_case "duplicate request id is not re-executed" `Quick
      test_duplicate_rid_not_reexecuted;
    Alcotest.test_case "snapshot returns an atomic view" `Quick test_snapshot_atomic_view;
    Alcotest.test_case "barrier-free register is detected" `Slow test_register_mutation_detected;
    Alcotest.test_case "honest register twin passes" `Slow test_register_honest_twin_passes;
    Alcotest.test_case "register mutation shrinks" `Slow test_register_mutation_shrinks;
  ]
