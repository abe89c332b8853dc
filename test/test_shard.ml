(* The sharded-runtime determinism contract, pinned.

   Four scenarios (bank, replica, register, snapshot) under the harshest
   profile (wan+lossy+crash) at shard counts 1, 2 and 4, two seeds each.  The
   expected fingerprints are absolute: a fingerprint is a pure function of
   (seed, profile, horizon, workload, shards), so any drift — a changed
   RNG split order, a different outbox injection order, a placement tweak —
   fails here with a string diff rather than surfacing as flaky chaos runs.

   The shards=1 rows double as the refactor's no-regression proof: they are
   the fingerprints the unsharded runtime produced before sharding existed
   (captured at the commit introducing this file), so one shard still
   replays the historical traces bit for bit.  The snapshot rows came
   later: they were captured from the separate Snapshot member before it
   and Register were folded onto one shared member core, and pin that
   fold.

   On top of the absolute pins, two relative properties close the loop:
   running with [parallel:true] must reproduce the sequential fingerprint
   (domain execution is an implementation detail of an epoch), and
   executing the same params twice in one process must agree (no hidden
   global state). *)

module Check = Dcp_check
module Scenario = Check.Scenario
module Scenarios = Check.Scenarios
module Clock = Dcp_sim.Clock

let profile =
  match Check.Profile.find "wan+lossy+crash" with
  | Some p -> p
  | None -> Alcotest.fail "profile wan+lossy+crash missing"

(* Replica runs at the check-smoke sweep's reduced size (2 s horizon, 40
   writes over 100 replicas) to keep the matrix affordable; bank,
   register and snapshot use their scenario defaults. *)
let execute name ~seed ~shards ~parallel =
  let scenario =
    match Scenarios.find name with
    | Some s -> s
    | None -> Alcotest.fail ("scenario missing: " ^ name)
  in
  let horizon, workload =
    if String.equal name "replica" then (Some (Clock.s 2), Some 40) else (None, None)
  in
  Scenario.execute scenario ~seed ~profile ?horizon ?workload ~shards ~parallel ()

(* (scenario, seed, shards, expected fingerprint); the bank, replica and
   register shards=1 rows equal the pre-sharding runtime's output for the
   same params. *)
let pinned =
  [
    ("bank", 5, 1, "ev=296 sent=210 lost=12 ok=30 to=0");
    ("bank", 5, 2, "ev=542 sent=264 lost=17 ok=30 to=0");
    ("bank", 5, 4, "ev=566 sent=239 lost=11 ok=30 to=0");
    ("bank", 11, 1, "ev=294 sent=210 lost=14 ok=30 to=0");
    ("bank", 11, 2, "ev=574 sent=287 lost=17 ok=30 to=0");
    ("bank", 11, 4, "ev=554 sent=234 lost=11 ok=30 to=0");
    ("replica", 5, 1, "ev=7858 sent=3899 lost=183 keys=39 conv=7750 sync=991661");
    ("replica", 5, 2, "ev=11167 sent=4468 lost=224 keys=40 conv=9250 sync=1181302");
    ("replica", 5, 4, "ev=16895 sent=7773 lost=366 keys=40 conv=7000 sync=1741178");
    ("replica", 11, 1, "ev=9705 sent=5829 lost=274 keys=40 conv=7750 sync=1319087");
    ("replica", 11, 2, "ev=11535 sent=4599 lost=206 keys=39 conv=9500 sync=1104366");
    ("replica", 11, 4, "ev=12246 sent=4800 lost=220 keys=39 conv=7500 sync=1188500");
    ("register", 5, 1, "ev=15761 sent=13110 lost=621 ok=39 unk=6 ne=3 conv=60000");
    ("register", 5, 2, "ev=22929 sent=12958 lost=652 ok=37 unk=6 ne=5 conv=60000");
    ("register", 5, 4, "ev=26653 sent=12947 lost=619 ok=33 unk=11 ne=4 conv=60000");
    ("register", 11, 1, "ev=15709 sent=13075 lost=631 ok=39 unk=8 ne=1 conv=60000");
    ("register", 11, 2, "ev=22960 sent=12946 lost=622 ok=33 unk=8 ne=7 conv=60000");
    ("register", 11, 4, "ev=26661 sent=12922 lost=597 ok=30 unk=13 ne=5 conv=60000");
    ("snapshot", 5, 1, "ev=9989 sent=7749 lost=363 ok=17 unk=5 ne=2 conv=60000");
    ("snapshot", 5, 2, "ev=14861 sent=7759 lost=397 ok=18 unk=5 ne=1 conv=60000");
    ("snapshot", 5, 4, "ev=17363 sent=7744 lost=366 ok=19 unk=3 ne=2 conv=60000");
    ("snapshot", 11, 1, "ev=9992 sent=7761 lost=376 ok=16 unk=6 ne=2 conv=60000");
    ("snapshot", 11, 2, "ev=14859 sent=7714 lost=351 ok=18 unk=4 ne=2 conv=60000");
    ("snapshot", 11, 4, "ev=17184 sent=7663 lost=356 ok=16 unk=6 ne=2 conv=60000");
  ]

let test_pinned (name, seed, shards, expected) () =
  let outcome = execute name ~seed ~shards ~parallel:false in
  Alcotest.(check string)
    (Printf.sprintf "%s seed=%d shards=%d fingerprint" name seed shards)
    expected outcome.Scenario.fingerprint;
  match outcome.Scenario.verdict with
  | Scenario.Pass -> ()
  | Scenario.Fail reason -> Alcotest.fail ("oracle failed: " ^ reason)

(* Domain-parallel execution is observationally identical to running the
   shards in order on one domain: same fingerprint, same verdict. *)
let test_parallel_matches name seed () =
  let seq = execute name ~seed ~shards:4 ~parallel:false in
  let par = execute name ~seed ~shards:4 ~parallel:true in
  Alcotest.(check string)
    (Printf.sprintf "%s seed=%d: parallel == sequential" name seed)
    seq.Scenario.fingerprint par.Scenario.fingerprint

let test_repeat_identical () =
  let a = execute "bank" ~seed:5 ~shards:2 ~parallel:true in
  let b = execute "bank" ~seed:5 ~shards:2 ~parallel:true in
  Alcotest.(check string) "repeated parallel runs agree" a.Scenario.fingerprint
    b.Scenario.fingerprint

let tests =
  List.map
    (fun ((name, seed, shards, _) as row) ->
      Alcotest.test_case
        (Printf.sprintf "%s seed=%d shards=%d pinned" name seed shards)
        (if String.equal name "bank" then `Quick else `Slow)
        (test_pinned row))
    pinned
  @ [
      Alcotest.test_case "bank: 4-domain run matches sequential" `Quick
        (test_parallel_matches "bank" 5);
      Alcotest.test_case "register: 4-domain run matches sequential" `Slow
        (test_parallel_matches "register" 11);
      Alcotest.test_case "snapshot: 4-domain run matches sequential" `Slow
        (test_parallel_matches "snapshot" 11);
      Alcotest.test_case "repeated parallel runs identical" `Quick test_repeat_identical;
    ]
