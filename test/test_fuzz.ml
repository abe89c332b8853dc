(* Fuzzing and determinism: the simulator must be a pure function of its
   seed, and no byte stream from the network may crash a decoder. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Clock = Dcp_sim.Clock
module Metrics = Dcp_sim.Metrics
module Network = Dcp_net.Network
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link
module Rng = Dcp_rng.Rng
module Scenario = Dcp_check.Scenario
module Scenarios = Dcp_check.Scenarios

let scenario name =
  match Scenarios.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

(* ---- determinism ----

   Determinism is the replay contract of the whole checking harness:
   outcome fingerprints (event counts, network stats, workload counters)
   must be pure functions of (seed, profile).  The wan+crash profile puts
   jitter, loss and crash/restart churn — the full nondeterminism surface —
   in play. *)

let scenario_fingerprint ~seed =
  let profile = Option.get (Dcp_check.Profile.find "wan+crash") in
  (Scenario.execute (scenario "airline") ~seed ~profile ~horizon:(Clock.s 10) ())
    .Scenario.fingerprint

let test_same_seed_same_world () =
  let a = scenario_fingerprint ~seed:97 in
  let b = scenario_fingerprint ~seed:97 in
  Alcotest.(check string) "identical fingerprints" a b

let test_different_seed_different_world () =
  let a = scenario_fingerprint ~seed:97 in
  let b = scenario_fingerprint ~seed:98 in
  (* With WAN jitter in play, two seeds virtually never produce identical
     event counts.  (If they ever do, the seed pair can be changed.) *)
  Alcotest.(check bool) "fingerprints differ" true (a <> b)

(* ---- decoder fuzzing ---- *)

let test_codec_fuzz_random_bytes () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 20_000 do
    let len = Rng.int rng 64 in
    let s = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    match Codec.decode s with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "decoder raised %s on %S" (Printexc.to_string e) s
  done

let test_codec_fuzz_truncations () =
  (* Valid encodings truncated at every length must fail cleanly, never
     raise. *)
  let value =
    Value.record
      [
        ("a", Value.list [ Value.int 42; Value.str "hello"; Value.real 2.5 ]);
        ("b", Value.option (Some (Value.tuple [ Value.bool true; Value.unit ])));
      ]
  in
  let encoded = Codec.encode_exn value in
  for len = 0 to String.length encoded - 1 do
    match Codec.decode (String.sub encoded 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d decoded successfully" len
    | Error _ -> ()
    | exception e -> Alcotest.failf "decoder raised %s at %d" (Printexc.to_string e) len
  done

let test_codec_fuzz_bitflips () =
  let rng = Rng.create ~seed:17 in
  let value =
    Value.list (List.init 10 (fun i -> Value.tuple [ Value.int i; Value.str "payload" ]))
  in
  let encoded = Codec.encode_exn value in
  for _ = 1 to 5_000 do
    let b = Bytes.of_string encoded in
    let i = Rng.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
    match Codec.decode (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
    | exception e -> Alcotest.failf "decoder raised %s" (Printexc.to_string e)
  done

(* ---- network-level fuzz: raw bytes at a node must never crash it ---- *)

let test_runtime_survives_garbage_on_the_wire () =
  let world =
    Runtime.create_world ~seed:5 ~topology:(Topology.full_mesh ~n:2 Link.perfect) ()
  in
  let echo_def =
    {
      Runtime.def_name = "garbage_target";
      provides = [ ([ Vtype.wildcard ], 16) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            (match Runtime.receive ctx ~timeout:(Clock.s 1) [ Runtime.port ctx 0 ] with
            | `Msg _ | `Timeout -> ());
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world echo_def;
  ignore (Runtime.create_guardian world ~at:1 ~def_name:"garbage_target" ~args:[]);
  let rng = Rng.create ~seed:23 in
  let network = Runtime.network world in
  for _ = 1 to 2_000 do
    let len = Rng.int rng 200 in
    Network.send network ~src:0 ~dst:1
      (String.init len (fun _ -> Char.chr (Rng.int rng 256)))
  done;
  Runtime.run_for world (Clock.s 5);
  let malformed =
    Option.value
      (List.assoc_opt "deliver.malformed" (Metrics.counters (Runtime.metrics world)))
      ~default:0
  in
  Alcotest.(check bool)
    (Printf.sprintf "garbage counted as malformed (%d)" malformed)
    true (malformed > 0)

(* ---- random guardians, ports and sends (API-level storm) ---- *)

let test_api_storm () =
  let world =
    Runtime.create_world ~seed:29
      ~topology:(Topology.full_mesh ~n:3 (Link.lossy 0.05))
      ()
  in
  let rng = Rng.create ~seed:31 in
  (* A population of wildcard-port guardians that randomly relay messages
     to random ports (valid and invalid), exercising routing, failure
     generation and buffer overflow paths all at once. *)
  let all_ports : Port_name.t list ref = ref [] in
  let relay_def =
    {
      Runtime.def_name = "storm_relay";
      provides = [ ([ Vtype.wildcard ], 4) ];
      init =
        (fun ctx _ ->
          let rng = Rng.split (Runtime.world_rng world) in
          let rec loop () =
            (match Runtime.receive ctx ~timeout:(Clock.ms 50) [ Runtime.port ctx 0 ] with
            | `Msg (_, msg) ->
                if Rng.bernoulli rng 0.5 && !all_ports <> [] then
                  Runtime.send ctx ~to_:(Rng.choice_list rng !all_ports) "hop"
                    msg.Dcp_core.Message.args
            | `Timeout ->
                if !all_ports <> [] then
                  Runtime.send ctx ~to_:(Rng.choice_list rng !all_ports) "tick"
                    [ Value.int (Rng.int rng 1000) ]);
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world relay_def;
  for i = 0 to 8 do
    let g = Runtime.create_guardian world ~at:(i mod 3) ~def_name:"storm_relay" ~args:[] in
    all_ports := Runtime.guardian_ports g @ !all_ports
  done;
  (* Sprinkle in some bogus targets. *)
  all_ports :=
    Port_name.make ~node:1 ~guardian:999 ~index:0 ~uid:31337
    :: Port_name.make ~node:0 ~guardian:0 ~index:9 ~uid:99999
    :: !all_ports;
  (* Random crashes in the middle. *)
  let engine = Runtime.engine world in
  for t = 1 to 3 do
    let node = Rng.int rng 3 in
    ignore
      (Dcp_sim.Engine.schedule engine ~at:(Clock.s t) (fun () ->
           if Runtime.node_up world node then Runtime.crash_node world node));
    ignore
      (Dcp_sim.Engine.schedule engine
         ~at:(Clock.s t + Clock.ms 300)
         (fun () -> if not (Runtime.node_up world node) then Runtime.restart_node world node))
  done;
  (* If anything deadlocks or throws, this run_for never returns cleanly or
     the test harness reports the exception. *)
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check bool) "storm survived" true (Dcp_sim.Engine.events_executed engine > 1000)

let tests =
  [
    Alcotest.test_case "same seed, same world" `Slow test_same_seed_same_world;
    Alcotest.test_case "different seed, different world" `Slow test_different_seed_different_world;
    Alcotest.test_case "codec fuzz: random bytes" `Slow test_codec_fuzz_random_bytes;
    Alcotest.test_case "codec fuzz: truncations" `Quick test_codec_fuzz_truncations;
    Alcotest.test_case "codec fuzz: bit flips" `Slow test_codec_fuzz_bitflips;
    Alcotest.test_case "garbage on the wire" `Quick test_runtime_survives_garbage_on_the_wire;
    Alcotest.test_case "API storm with crashes" `Slow test_api_storm;
  ]
