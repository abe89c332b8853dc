(* Self-tests for the checking harness itself.  The load-bearing one is the
   mutation test: a scenario whose reference model deliberately ignores one
   transfer MUST be flagged by the oracles and shrunk to a small
   counterexample — a harness that stays green on a known-broken model is
   worse than no harness at all. *)

module Check = Dcp_check
module Clock = Dcp_sim.Clock

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let profile name =
  match Check.Profile.find name with
  | Some p -> p
  | None -> Alcotest.failf "unknown profile %s" name

(* A calm profile keeps these tests fast; the mutation is detectable in any
   execution where at least one transfer commits. *)
let calm = profile "lan"

let test_mutation_detected () =
  let outcome = Check.Scenario.execute Check.Scenarios.bank_mutated ~seed:1 ~profile:calm () in
  match Check.Scenario.fail_reason outcome with
  | None -> Alcotest.fail "mutated bank model passed the oracles: the checker is blind"
  | Some reason ->
      Alcotest.(check bool)
        "failure implicates the model oracle" true
        (contains ~affix:"model" reason || contains ~affix:"balance" reason)

let test_honest_twin_passes () =
  (* Same seed, same profile, honest model: the failure above is the
     mutation's doing, not scenario noise. *)
  let outcome = Check.Scenario.execute Check.Scenarios.bank ~seed:1 ~profile:calm () in
  match Check.Scenario.fail_reason outcome with
  | None -> ()
  | Some reason -> Alcotest.failf "honest bank scenario failed: %s" reason

let test_mutation_shrinks () =
  match Check.Shrink.run Check.Scenarios.bank_mutated ~seed:1 ~profile:calm ~budget:40 () with
  | Error e -> Alcotest.failf "nothing to shrink: %s" e
  | Ok cx ->
      Alcotest.(check bool) "some shrink step accepted" true (cx.Check.Shrink.accepted > 0);
      Alcotest.(check bool) "workload minimised" true (cx.Check.Shrink.workload <= 2);
      Alcotest.(check bool) "trials within budget" true (cx.Check.Shrink.trials <= 40);
      (* The minimal point must itself replay to a failure — a shrinker
         that reports a passing configuration is lying. *)
      let replay =
        Check.Scenario.execute Check.Scenarios.bank_mutated ~seed:cx.Check.Shrink.seed
          ~profile:(profile cx.Check.Shrink.profile)
          ~horizon:cx.Check.Shrink.horizon ~workload:cx.Check.Shrink.workload
          ~intensity:cx.Check.Shrink.intensity ()
      in
      (match Check.Scenario.fail_reason replay with
      | Some _ -> ()
      | None -> Alcotest.fail "shrunk counterexample does not reproduce");
      let hint = Check.Shrink.replay_hint cx in
      Alcotest.(check bool)
        "replay hint names the scenario" true
        (contains ~affix:"bank_mutated" hint)

let test_sweep_deterministic_failures () =
  (* A sweep with a non-empty failure set must report the identical
     (profile, seed, reason) list on a second run. *)
  let sweep () =
    Check.Sweep.run Check.Scenarios.bank_mutated ~profiles:[ calm ] ~seed_base:1 ~seeds:5
  in
  let a = sweep () and b = sweep () in
  Alcotest.(check bool) "failures found" true (a.Check.Sweep.failures <> []);
  let strip t =
    List.map
      (fun f -> (f.Check.Sweep.profile, f.Check.Sweep.seed, f.Check.Sweep.reason))
      t.Check.Sweep.failures
  in
  Alcotest.(check (list (triple string int string))) "identical failure sets" (strip a) (strip b)

let test_outcome_fingerprint_deterministic () =
  let run () = Check.Scenario.execute Check.Scenarios.bank ~seed:42 ~profile:(profile "wan+crash") () in
  let a = run () and b = run () in
  Alcotest.(check string) "fingerprints agree" a.Check.Scenario.fingerprint b.Check.Scenario.fingerprint;
  Alcotest.(check bool) "verdicts agree"
    true
    (Check.Scenario.fail_reason a = Check.Scenario.fail_reason b)

let test_replica_fingerprint_deterministic () =
  (* The 100-replica scenario at a reduced horizon/workload: identical
     params must yield bit-identical fingerprints (the sweep determinism
     surface for the new scenario). *)
  let run () =
    Check.Scenario.execute Check.Scenarios.replica ~seed:9 ~profile:(profile "wan+lossy+crash")
      ~horizon:(Clock.s 2) ~workload:40 ()
  in
  let a = run () and b = run () in
  Alcotest.(check string) "fingerprints agree" a.Check.Scenario.fingerprint
    b.Check.Scenario.fingerprint;
  (match Check.Scenario.fail_reason a with
  | None -> ()
  | Some reason -> Alcotest.failf "replica scenario failed: %s" reason);
  Alcotest.(check bool) "convergence was measured" true
    (Check.Scenario.stat a "convergence_ms" >= 0)

(* Rpc, Ordered and Two_phase ids come from each world's mint, so a run is
   pure across a process (DESIGN §8): after 30 other airline worlds, the
   seed-1 wan+crash run still prints the fingerprint `dcp_check run`
   prints in a fresh process.  With a process-global id counter, the ids
   earlier worlds spent widened this run's varints and moved its timing. *)
let test_airline_pure_across_process () =
  let wan_crash = profile "wan+crash" in
  for seed = 2 to 31 do
    ignore (Check.Scenario.execute Check.Scenarios.airline ~seed ~profile:wan_crash ())
  done;
  let outcome = Check.Scenario.execute Check.Scenarios.airline ~seed:1 ~profile:wan_crash () in
  Alcotest.(check string) "fresh-process fingerprint"
    "ev=9692 sent=270 lost=2 ok=981 failed=3 tx=239" outcome.Check.Scenario.fingerprint

let tests =
  [
    Alcotest.test_case "mutated model is detected" `Quick test_mutation_detected;
    Alcotest.test_case "honest twin passes" `Quick test_honest_twin_passes;
    Alcotest.test_case "mutation shrinks to a minimal counterexample" `Slow test_mutation_shrinks;
    Alcotest.test_case "failing sweep is deterministic" `Slow test_sweep_deterministic_failures;
    Alcotest.test_case "outcome fingerprint is deterministic" `Quick
      test_outcome_fingerprint_deterministic;
    Alcotest.test_case "replica fingerprint is deterministic" `Slow
      test_replica_fingerprint_deterministic;
    Alcotest.test_case "airline run is pure across a process" `Quick
      test_airline_pure_across_process;
  ]
