(* Chaos suites: randomized fault injection with global invariants.

   These are now thin drivers over the Dcp_check scenario library — the
   crash scheduler lives in Dcp_check.Chaos, the invariants in
   Dcp_check.Oracle, and each (scenario, seed, profile) triple here is a
   fixed, replayable point from the same space `dcp_check sweep` explores:

     dune exec bin/dcp_check.exe -- run --scenario bank --seed 1003 --profile lan+crash *)

module Check = Dcp_check
module Scenario = Dcp_check.Scenario
module Scenarios = Dcp_check.Scenarios

let scenario name =
  match Scenarios.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

(* A named outcome stat, 0 when absent. *)
let stat_of outcome name = Option.value (List.assoc_opt name outcome.Scenario.stats) ~default:0

let profile name =
  match Check.Profile.find name with
  | Some p -> p
  | None -> Alcotest.failf "unknown profile %s" name

(* Run one fixed point and require a Pass plus real forward progress: an
   execution where every request timed out satisfies most invariants
   vacuously, so the stat floor is part of the assertion. *)
let check_point scenario ~seed ~profile:pname ~stat ~at_least =
  let outcome = Scenario.execute scenario ~seed ~profile:(profile pname) () in
  (match Scenario.fail_reason outcome with
  | None -> ()
  | Some reason ->
      Alcotest.failf "%s seed=%d profile=%s: %s (replay: dune exec bin/dcp_check.exe -- run --scenario %s --seed %d --profile %s)"
        scenario.Scenario.name seed pname reason scenario.Scenario.name seed pname);
  let progress = stat_of outcome stat in
  Alcotest.(check bool)
    (Printf.sprintf "made progress (%s=%d, need >%d)" stat progress at_least)
    true (progress > at_least)

let test_airline_chaos () =
  check_point (scenario "airline") ~seed:1001 ~profile:"lan+crash" ~stat:"requests_ok" ~at_least:50

let test_bank_chaos () =
  check_point (scenario "bank") ~seed:1003 ~profile:"lan+crash" ~stat:"transfers_ok" ~at_least:10

let test_itinerary_chaos () =
  check_point (scenario "itinerary") ~seed:1005 ~profile:"lan+crash" ~stat:"booked" ~at_least:0

(* The lossy end of the matrix: loss, duplication and corruption on top of
   crash churn.  One fixed seed per scenario keeps runtest bounded; the
   sweep covers breadth. *)
let test_bank_lossy () =
  check_point (scenario "bank") ~seed:7 ~profile:"lossy+crash" ~stat:"transfers_ok" ~at_least:5

let test_itinerary_lossy () =
  check_point (scenario "itinerary") ~seed:26 ~profile:"lossy+crash" ~stat:"outcomes" ~at_least:0

(* Replica anti-entropy: the convergence + byte-budget oracles at two fixed
   points on the loss matrix, including the harshest profile (wan latency,
   5% loss, crash churn).  The "keys" floor rejects vacuous convergence on
   empty tables. *)
let test_replica_wan_lossy_crash () =
  check_point (scenario "replica") ~seed:11 ~profile:"wan+lossy+crash" ~stat:"keys" ~at_least:100

let test_replica_lossy () =
  check_point (scenario "replica") ~seed:23 ~profile:"lossy+crash" ~stat:"keys" ~at_least:100

(* SCD registers and snapshots at the harsh end of the matrix: the
   linearizability and table-convergence oracles under wan latency, 5%
   loss and crash churn.  The ops_ok floors reject runs where every client
   call timed out and the history checks vacuously. *)
let test_register_wan_lossy_crash () =
  check_point (scenario "register") ~seed:3 ~profile:"wan+lossy+crash" ~stat:"ops_ok" ~at_least:20

let test_register_lossy () =
  check_point (scenario "register") ~seed:14 ~profile:"lossy+crash" ~stat:"ops_ok" ~at_least:20

let test_snapshot_wan_lossy_crash () =
  check_point (scenario "snapshot") ~seed:2 ~profile:"wan+lossy+crash" ~stat:"ops_ok" ~at_least:8

(* The disk axis of the matrix: flaky disks (bit rot, torn writes, dropped
   un-flushed tails, stalls) under a crash schedule whose outage exceeds
   its period, so up to two nodes are down at once and recovery from disk
   damage runs while a peer is still dark.  Each pinned point must pass its
   oracles AND show that the disk plane actually bit (salvage, quarantine,
   checkpoint fallback or dropped tail) — a damage-free run would pass
   vacuously. *)
let damage outcome =
  stat_of outcome "stable_salvaged"
  + stat_of outcome "stable_quarantined"
  + stat_of outcome "stable_ckpt_fallbacks"
  + stat_of outcome "stable_dropped_unflushed"

let check_disk_point scenario ~seed ~profile:p ~pname ~stat ~at_least =
  let outcome = Scenario.execute scenario ~seed ~profile:p () in
  (match Scenario.fail_reason outcome with
  | None -> ()
  | Some reason ->
      Alcotest.failf "%s seed=%d profile=%s: %s" scenario.Scenario.name seed pname reason);
  let progress = stat_of outcome stat in
  Alcotest.(check bool)
    (Printf.sprintf "made progress (%s=%d, need >%d)" stat progress at_least)
    true (progress > at_least);
  Alcotest.(check bool) "disk plane did damage" true (damage outcome > 0)

let check_disk_named scenario ~seed ~profile:pname ~stat ~at_least =
  check_disk_point scenario ~seed ~profile:(profile pname) ~pname ~stat ~at_least

let test_bank_disk () =
  check_disk_named (scenario "bank") ~seed:1001 ~profile:"lan+crash+disk" ~stat:"transfers_ok"
    ~at_least:10

let test_itinerary_disk () =
  check_disk_named (scenario "itinerary") ~seed:1005 ~profile:"wan+lossy+crash+disk" ~stat:"booked"
    ~at_least:0

let test_replica_disk () =
  check_disk_named (scenario "replica") ~seed:1001 ~profile:"wan+lossy+crash+disk" ~stat:"keys"
    ~at_least:100

let test_register_disk () =
  check_disk_named (scenario "register") ~seed:1001 ~profile:"wan+lossy+crash+disk" ~stat:"ops_ok"
    ~at_least:20

let test_snapshot_disk () =
  check_disk_named (scenario "snapshot") ~seed:1003 ~profile:"wan+lossy+crash+disk" ~stat:"ops_ok"
    ~at_least:8

let test_airline_disk () =
  check_disk_named (scenario "airline") ~seed:1001 ~profile:"lan+crash+disk" ~stat:"requests_ok"
    ~at_least:50

(* Quarantine recovery: the hostile spec destroys both copies of a rotted
   record (sector_p = 1, no mirror to salvage from), so recovery must drop
   it and keep going — anti-entropy then re-fetches the lost key from the
   peers, and convergence plus the durability oracle still hold.  This
   seed quarantines several records (stable_quarantined > 0 is asserted
   via the damage floor; salvage is impossible under hostile). *)
let test_replica_hostile_quarantine () =
  let base = profile "wan+lossy+crash+disk" in
  let hostile =
    { base with Check.Profile.disk = Some Dcp_stable.Disk.hostile }
  in
  check_disk_point (scenario "replica") ~seed:1002 ~profile:hostile
    ~pname:"wan+lossy+crash+disk(hostile)" ~stat:"keys" ~at_least:100

let tests =
  [
    Alcotest.test_case "airline invariants under churn" `Slow test_airline_chaos;
    Alcotest.test_case "bank conservation under churn" `Slow test_bank_chaos;
    Alcotest.test_case "itinerary atomicity under churn" `Slow test_itinerary_chaos;
    Alcotest.test_case "bank under lossy links" `Slow test_bank_lossy;
    Alcotest.test_case "itinerary under lossy links (regression seed)" `Slow test_itinerary_lossy;
    Alcotest.test_case "replica convergence under wan+lossy+crash" `Slow
      test_replica_wan_lossy_crash;
    Alcotest.test_case "replica convergence under lossy+crash" `Slow test_replica_lossy;
    Alcotest.test_case "register linearizable under wan+lossy+crash" `Slow
      test_register_wan_lossy_crash;
    Alcotest.test_case "register linearizable under lossy+crash" `Slow test_register_lossy;
    Alcotest.test_case "snapshot views under wan+lossy+crash" `Slow
      test_snapshot_wan_lossy_crash;
    Alcotest.test_case "bank under flaky disks + overlapping crashes" `Slow test_bank_disk;
    Alcotest.test_case "itinerary under flaky disks + overlapping crashes" `Slow
      test_itinerary_disk;
    Alcotest.test_case "replica under flaky disks + overlapping crashes" `Slow
      test_replica_disk;
    Alcotest.test_case "register under flaky disks + overlapping crashes" `Slow
      test_register_disk;
    Alcotest.test_case "snapshot under flaky disks + overlapping crashes" `Slow
      test_snapshot_disk;
    Alcotest.test_case "airline under flaky disks + overlapping crashes" `Slow
      test_airline_disk;
    Alcotest.test_case "replica quarantine recovery under hostile disks (regression seed)"
      `Slow test_replica_hostile_quarantine;
  ]
