(* Bechamel micro-benchmarks of the hot paths: codec, CRC, heap, WAL,
   tokens, and the full in-simulator send path.  One Test.make per row.

   Besides the console table, [run] writes BENCH_micro.json (schema
   documented in DESIGN.md §6) so the perf trajectory is machine-readable
   across PRs. *)

open Bechamel
open Toolkit
open Dcp_wire
module Heap = Dcp_sim.Heap
module Crc32 = Dcp_net.Crc32
module Packet = Dcp_net.Packet
module Wal = Dcp_stable.Wal
module Rng = Dcp_rng.Rng
module Runtime = Dcp_core.Runtime
module Topology = Dcp_net.Topology
module Clock = Dcp_sim.Clock

let sample_value =
  Value.record
    [
      ("command", Value.str "reserve");
      ("args", Value.list [ Value.int 123456; Value.str "passenger-007"; Value.int 42 ]);
      ("reply", Value.option (Some (Value.port (Port_name.make ~node:1 ~guardian:2 ~index:3 ~uid:4))));
    ]

let sample_encoded = Codec.encode_exn sample_value
let kilobyte = String.init 1024 (fun i -> Char.chr (i mod 256))
let bytes64 = String.init 64 (fun i -> Char.chr ((i * 7) mod 256))
let fourkib = String.init 4096 (fun i -> Char.chr ((i * 13) mod 256))

let test_codec_encode =
  Test.make ~name:"codec.encode message" (Staged.stage (fun () -> Codec.encode_exn sample_value))

(* The runtime's own framing of a message like [sample_value]: the
   direct envelope pair, encoding into one reused scratch buffer. *)
let sample_target = Port_name.make ~node:2 ~guardian:5 ~index:0 ~uid:9
let sample_reply = Some (Port_name.make ~node:1 ~guardian:2 ~index:3 ~uid:4)
let sample_args = [ Value.int 123456; Value.str "passenger-007"; Value.int 42 ]
let envelope_encoder = Codec.encoder ()

let encode_sample_envelope () =
  match
    Codec.encode_envelope envelope_encoder ~target:sample_target ~command:"reserve"
      ~args:sample_args ~reply_to:sample_reply ~sent_at:1_000_000
  with
  | Ok s -> s
  | Error _ -> assert false

let sample_envelope = encode_sample_envelope ()

let test_codec_encode_envelope =
  Test.make ~name:"codec.encode_envelope message" (Staged.stage encode_sample_envelope)

let test_codec_decode_envelope =
  Test.make ~name:"codec.decode_envelope message"
    (Staged.stage (fun () -> Codec.decode_envelope ~config:Codec.default_config sample_envelope))

let test_codec_decode =
  Test.make ~name:"codec.decode message" (Staged.stage (fun () -> Codec.decode_exn sample_encoded))

let test_crc32_64 =
  Test.make ~name:"crc32 64B" (Staged.stage (fun () -> Crc32.digest_string bytes64))

let test_crc32 =
  Test.make ~name:"crc32 1KiB" (Staged.stage (fun () -> Crc32.digest_string kilobyte))

let test_crc32_4k =
  Test.make ~name:"crc32 4KiB" (Staged.stage (fun () -> Crc32.digest_string fourkib))

let test_fragment =
  Test.make ~name:"packet.fragment 1KiB mtu=256"
    (Staged.stage (fun () -> Packet.fragment ~src:0 ~dst:1 ~msg_id:1 ~mtu:256 kilobyte))

let test_fragment_reassemble =
  Test.make ~name:"packet.fragment+reassemble 1KiB mtu=256"
    (Staged.stage (fun () ->
         let frags = Packet.fragment ~src:0 ~dst:1 ~msg_id:1 ~mtu:256 kilobyte in
         let r = Packet.Reassembly.create () in
         List.iter (fun f -> ignore (Packet.Reassembly.offer r ~now:0 f)) frags))

let test_heap =
  Test.make ~name:"heap push+pop x64"
    (Staged.stage (fun () ->
         let h = Heap.create ~cmp:Int.compare in
         for i = 0 to 63 do
           Heap.push h ((i * 37) mod 64)
         done;
         for _ = 0 to 63 do
           ignore (Heap.pop h)
         done))

(* Depth matters to the sift: 1k keys is ~5 levels of the 4-ary heap
   (vs ~10 of a binary one), so this row tracks the per-level cost the
   shallow x64 row can hide. *)
let test_heap_1k =
  Test.make ~name:"heap push+pop x1k"
    (Staged.stage (fun () ->
         let h = Heap.create ~cmp:Int.compare in
         for i = 0 to 1023 do
           Heap.push h ((i * 997) mod 1024)
         done;
         for _ = 0 to 1023 do
           ignore (Heap.pop h)
         done))

let test_wal_append =
  Test.make ~name:"wal.append 64B"
    (Staged.stage
       (let wal = Wal.create () in
        let payload = String.make 64 'x' in
        fun () -> ignore (Wal.append wal payload)))

(* Replay of a standing 1k-record log: with the verified-prefix cache this
   is pure iteration (each CRC was checked once, on the first replay);
   without it every call re-digests all 1000 records. *)
let test_wal_replay_1k =
  Test.make ~name:"wal.replay 1k"
    (Staged.stage
       (let wal = Wal.create () in
        let payload = String.make 64 'y' in
        let () =
          for _ = 1 to 1000 do
            ignore (Wal.append wal payload)
          done
        in
        fun () ->
          let n = ref 0 in
          Wal.replay wal (fun _ _ -> incr n)))

(* Recovery of a checkpointed store: crash + rebuild from the newest
   checkpoint plus the log suffix.  The 1k and 10k rows must track each
   other — recovery is O(suffix), and the suffix length is bounded by
   [checkpoint_every], not by history. *)
let recover_bench entries =
  let store = Dcp_stable.Store.create ~checkpoint_every:100 () in
  let () =
    for i = 1 to entries do
      Dcp_stable.Store.set store ~key:(string_of_int (i mod 250)) (string_of_int i)
    done;
    Dcp_stable.Store.flush store
  in
  fun () ->
    Dcp_stable.Store.crash store ();
    ignore (Dcp_stable.Store.recover store)

let test_wal_recover_1k =
  Test.make ~name:"wal.recover (1k entries, checkpointed)" (Staged.stage (recover_bench 1_000))

let test_wal_recover_10k =
  Test.make ~name:"wal.recover (10k entries, checkpointed)" (Staged.stage (recover_bench 10_000))

(* Framing a 250-key table as a CRC'd checkpoint blob plus compacting the
   log prefix — the cost a guardian pays every [checkpoint_every]
   mutations. *)
let test_checkpoint_write =
  Test.make ~name:"checkpoint.write (250 keys)"
    (Staged.stage
       (let store = Dcp_stable.Store.create () in
        let () =
          for i = 1 to 1_000 do
            Dcp_stable.Store.set store ~key:(string_of_int (i mod 250)) (string_of_int i)
          done
        in
        fun () -> Dcp_stable.Store.checkpoint store))

let test_token =
  Test.make ~name:"token seal+unseal"
    (Staged.stage (fun () ->
         let token = Token.seal ~secret:0x1234L ~owner:7 ~obj:99 in
         ignore (Token.unseal ~secret:0x1234L ~owner:7 token)))

let test_rng =
  Test.make ~name:"rng.int"
    (Staged.stage
       (let rng = Rng.create ~seed:1 in
        fun () -> ignore (Rng.int rng 1_000_000)))

(* One full exchange through the runtime per run: a fresh client guardian
   sends to a long-lived echo guardian and receives the reply; the engine
   drains to quiescence.  Covers guardian creation, both codec directions,
   routing, port machinery and two process switches. *)
let test_send_path =
  Test.make ~name:"runtime round-trip (+guardian)"
    (Staged.stage
       (let world =
          Runtime.create_world ~seed:1
            ~topology:(Topology.full_mesh ~n:1 Dcp_net.Link.perfect)
            ()
        in
        let echo_def =
          {
            Runtime.def_name = "bench_echo";
            provides = [ ([ Vtype.wildcard ], 64) ];
            init =
              (fun ctx _ ->
                let rec loop () =
                  (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
                  | `Timeout -> ()
                  | `Msg (_, msg) -> (
                      match msg.Dcp_core.Message.reply_to with
                      | Some reply -> Runtime.send ctx ~to_:reply "pong" []
                      | None -> ()));
                  loop ()
                in
                loop ());
            recover = None;
          }
        in
        Runtime.register_def world echo_def;
        let echo = Runtime.create_guardian world ~at:0 ~def_name:"bench_echo" ~args:[] in
        let echo_port = List.hd (Runtime.guardian_ports echo) in
        let client_def =
          {
            Runtime.def_name = "bench_client";
            provides = [];
            init =
              (fun ctx _ ->
                let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
                Runtime.send ctx ~to_:echo_port ~reply_to:(Dcp_core.Port.name reply) "ping" [];
                match Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ] with
                | `Msg _ | `Timeout -> ());
            recover = None;
          }
        in
        Runtime.register_def world client_def;
        Runtime.run world;
        fun () ->
          ignore (Runtime.create_guardian world ~at:0 ~def_name:"bench_client" ~args:[]);
          Runtime.run world))

(* Same round trip against a world that already hosts 1k guardians on the
   node: with any O(#guardians) work left on the delivery path this row
   collapses; with the indexed hot path it tracks the row above. *)
let test_send_path_1k =
  Test.make ~name:"runtime round-trip @1k guardians"
    (Staged.stage
       (let world =
          Runtime.create_world ~seed:2
            ~topology:(Topology.full_mesh ~n:1 Dcp_net.Link.perfect)
            ()
        in
        let idle_def =
          {
            Runtime.def_name = "bench_idle";
            provides = [];
            init = (fun _ _ -> ());
            recover = None;
          }
        in
        let echo_def =
          {
            Runtime.def_name = "bench_echo";
            provides = [ ([ Vtype.wildcard ], 64) ];
            init =
              (fun ctx _ ->
                let rec loop () =
                  (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
                  | `Timeout -> ()
                  | `Msg (_, msg) -> (
                      match msg.Dcp_core.Message.reply_to with
                      | Some reply -> Runtime.send ctx ~to_:reply "pong" []
                      | None -> ()));
                  loop ()
                in
                loop ());
            recover = None;
          }
        in
        Runtime.register_def world idle_def;
        Runtime.register_def world echo_def;
        let echo = Runtime.create_guardian world ~at:0 ~def_name:"bench_echo" ~args:[] in
        let echo_port = List.hd (Runtime.guardian_ports echo) in
        for _ = 1 to 999 do
          ignore (Runtime.create_guardian world ~at:0 ~def_name:"bench_idle" ~args:[])
        done;
        let client_def =
          {
            Runtime.def_name = "bench_client";
            provides = [];
            init =
              (fun ctx _ ->
                let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
                Runtime.send ctx ~to_:echo_port ~reply_to:(Dcp_core.Port.name reply) "ping" [];
                match Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ] with
                | `Msg _ | `Timeout -> ());
            recover = None;
          }
        in
        Runtime.register_def world client_def;
        Runtime.run world;
        fun () ->
          ignore (Runtime.create_guardian world ~at:0 ~def_name:"bench_client" ~args:[]);
          Runtime.run world))

(* The pure half of one anti-entropy round: merge-diff of two 1k-entry
   key-sorted digests.  This is what every replica runs per received
   digest, so its cost bounds sync CPU at scale. *)
let test_reconcile_diff =
  Test.make ~name:"reconcile.diff 1k entries"
    (Staged.stage
       (let module Reconcile = Dcp_primitives.Reconcile in
        let claimed =
          List.init 1000 (fun i -> (Printf.sprintf "key%04d" i, ((i mod 7) + 1, i mod 3)))
        in
        let held =
          List.init 1000 (fun i -> (Printf.sprintf "key%04d" i, ((i mod 5) + 1, i mod 3)))
        in
        fun () -> ignore (Reconcile.diff ~claimed ~held)))

let all_tests =
  [
    test_codec_encode;
    test_codec_decode;
    test_codec_encode_envelope;
    test_codec_decode_envelope;
    test_crc32_64;
    test_crc32;
    test_crc32_4k;
    test_fragment;
    test_fragment_reassemble;
    test_heap;
    test_heap_1k;
    test_wal_append;
    test_wal_replay_1k;
    test_wal_recover_1k;
    test_wal_recover_10k;
    test_checkpoint_write;
    test_token;
    test_rng;
    test_reconcile_diff;
    test_send_path;
    test_send_path_1k;
  ]

(* ---- deterministic replica macro rows ----

   Whole-protocol cost of anti-entropy convergence, measured in virtual
   units: a 32-replica group on a 10%-loss LAN, 60 keys written through
   random replicas, then probed until every mirrored key → stamp table is
   identical.  Virtual time and byte counts are pure functions of the seed
   — the same number on every run and every machine — so the 25% bench-diff
   tolerance effectively pins these rows exactly: any protocol change that
   alters convergence behaviour or sync cost trips the gate. *)
let replica_rows () =
  let module Replica = Dcp_primitives.Replica in
  let module Rpc = Dcp_primitives.Rpc in
  let module Metrics = Dcp_sim.Metrics in
  let n = 32 in
  let keys = 60 in
  let horizon = Clock.s 2 in
  let world =
    Runtime.create_world ~seed:11
      ~topology:(Topology.full_mesh ~n:(n + 1) (Dcp_net.Link.lossy 0.1))
      ()
  in
  let replicas =
    Array.of_list
      (Replica.create_group world
         ~nodes:(List.init n Fun.id)
         ~sync_every:(Clock.ms 250) ~fanout:2 ~byte_budget:2048 ())
  in
  let driver_def =
    {
      Runtime.def_name = "bench_replica_driver";
      provides = [];
      init =
        (fun ctx _ ->
          Runtime.sleep ctx (Clock.ms 50);
          for i = 1 to keys do
            (match
               Rpc.call ctx
                 ~to_:replicas.(i mod n)
                 ~timeout:(Clock.ms 500) ~attempts:3 ~request_id:(4_000_000_000 + i) "write"
                 [ Value.str (Printf.sprintf "key%02d" i); Value.int i ]
             with
            | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> ());
            Runtime.sleep ctx (Clock.ms 25)
          done);
      recover = None;
    }
  in
  Runtime.register_def world driver_def;
  ignore (Runtime.create_guardian world ~at:n ~def_name:"bench_replica_driver" ~args:[]);
  Runtime.run_for world horizon;
  let tables () =
    List.map
      (fun g -> Replica.table_in_store (Runtime.guardian_store g))
      (Runtime.find_guardians world ~def_name:Replica.def_name)
  in
  let converged () =
    match tables () with
    | [] -> false
    | reference :: rest ->
        List.length reference = keys && List.for_all (fun t -> t = reference) rest
  in
  let step = Clock.ms 100 in
  let rec probe i =
    if converged () then Some i
    else if i >= 1000 then None
    else begin
      Runtime.run_for world step;
      probe (i + 1)
    end
  in
  let convergence_ms =
    match probe 0 with
    | Some _ -> (Runtime.now world - horizon) / Clock.ms 1
    | None -> -1
  in
  let sync_bytes =
    Metrics.count (Metrics.counter (Runtime.metrics world) Replica.metric_sync_bytes)
  in
  Printf.printf "  %-32s %12.1f virtual ms\n%!" "replica.convergence 32x lossy"
    (float_of_int convergence_ms);
  Printf.printf "  %-32s %12.1f bytes\n%!" "replica.sync bytes to converge" (float_of_int sync_bytes);
  [
    ("replica.convergence 32x lossy (virtual ms)", Some (float_of_int convergence_ms));
    ("replica.sync bytes to converge (bytes)", Some (float_of_int sync_bytes));
  ]

(* ---- deterministic message-cost rows ----

   The paper's primitive-cost comparison, §3: what one client-visible
   operation costs in messages on the wire.  A synchronized send is two
   messages (payload + ack); a remote procedure call is two (request +
   reply); an SCD-register write on an n-member group is the broadcast to
   the other members, the client exchange, and its share of the status
   gossip that drives the delivery frontier.  Perfect links and pinned
   seeds make every count an exact function of the code, so the bench gate
   pins these rows at threshold 1. *)
let sendcost_rows () =
  let module Rpc = Dcp_primitives.Rpc in
  let module Sync_send = Dcp_primitives.Sync_send in
  let module Register = Dcp_primitives.Register in
  let module Network = Dcp_net.Network in
  let module Message = Dcp_core.Message in
  let ops = 20 in
  let measure ctx body =
    let net = Runtime.network (Runtime.ctx_world ctx) in
    let before = (Network.stats net).Network.messages_sent in
    body ();
    let after = (Network.stats net).Network.messages_sent in
    float_of_int (after - before) /. float_of_int ops
  in
  let driver world ~at ~name body =
    let def =
      { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
    in
    Runtime.register_def world def;
    ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])
  in
  (* sync_send: a cooperating receiver acknowledges each message. *)
  let sync_cost =
    let world =
      Runtime.create_world ~seed:17 ~topology:(Topology.full_mesh ~n:2 Dcp_net.Link.perfect) ()
    in
    let receiver =
      {
        Runtime.def_name = "bench_sync_target";
        provides = [ ([ Vtype.wildcard ], 16) ];
        init =
          (fun ctx _ ->
            let port = Runtime.port ctx 0 in
            let rec loop () =
              (match Runtime.receive ctx [ port ] with
              | `Timeout -> ()
              | `Msg (_, msg) -> Sync_send.acknowledge ctx msg);
              loop ()
            in
            loop ());
        recover = None;
      }
    in
    Runtime.register_def world receiver;
    let target =
      List.hd
        (Runtime.guardian_ports
           (Runtime.create_guardian world ~at:0 ~def_name:"bench_sync_target" ~args:[]))
    in
    let cost = ref 0.0 in
    driver world ~at:1 ~name:"bench_sync_driver" (fun ctx ->
        Runtime.sleep ctx (Clock.ms 50);
        cost :=
          measure ctx (fun () ->
              for i = 1 to ops do
                ignore (Sync_send.send ctx ~to_:target "note" [ Value.int i ])
              done));
    Runtime.run_for world (Clock.s 5);
    !cost
  in
  (* rpc: request out, reply back. *)
  let rpc_cost =
    let world =
      Runtime.create_world ~seed:19 ~topology:(Topology.full_mesh ~n:2 Dcp_net.Link.perfect) ()
    in
    let server =
      {
        Runtime.def_name = "bench_rpc_server";
        provides = [ ([ Vtype.wildcard ], 16) ];
        init =
          (fun ctx _ ->
            let port = Runtime.port ctx 0 in
            let rec loop () =
              (match Runtime.receive ctx [ port ] with
              | `Timeout -> ()
              | `Msg (_, msg) -> (
                  match (msg.Message.command, msg.Message.args, msg.Message.reply_to) with
                  | "ping", [ Value.Int rid ], Some reply ->
                      Runtime.send ctx ~to_:reply "pong" [ Value.int rid ]
                  | _ -> ()));
              loop ()
            in
            loop ());
        recover = None;
      }
    in
    Runtime.register_def world server;
    let target =
      List.hd
        (Runtime.guardian_ports
           (Runtime.create_guardian world ~at:0 ~def_name:"bench_rpc_server" ~args:[]))
    in
    let cost = ref 0.0 in
    driver world ~at:1 ~name:"bench_rpc_driver" (fun ctx ->
        Runtime.sleep ctx (Clock.ms 50);
        cost :=
          measure ctx (fun () ->
              for i = 1 to ops do
                ignore
                  (Rpc.call ctx ~to_:target ~timeout:(Clock.s 1) ~attempts:1
                     ~request_id:(4_300_000_000 + i) "ping" [])
              done));
    Runtime.run_for world (Clock.s 5);
    !cost
  in
  (* scd register write on a 5-member group: broadcast + client exchange +
     the status gossip share over the acked-write window. *)
  let scd_cost =
    let members = 5 in
    let world =
      Runtime.create_world ~seed:23
        ~topology:(Topology.full_mesh ~n:(members + 1) Dcp_net.Link.perfect)
        ()
    in
    let regs =
      Array.of_list
        (Register.create_group world ~nodes:(List.init members Fun.id) ~introduce_at:members ())
    in
    let cost = ref 0.0 in
    driver world ~at:members ~name:"bench_scd_driver" (fun ctx ->
        (* Past the bootstrap: the measured window holds only writes and
           steady-state gossip. *)
        Runtime.sleep ctx (Clock.s 2);
        cost :=
          measure ctx (fun () ->
              for i = 1 to ops do
                ignore
                  (Register.write ctx
                     ~register:regs.(i mod members)
                     ~key:(Printf.sprintf "k%d" (i mod 4))
                     ~value:(Value.int i) ~timeout:(Clock.s 2))
              done));
    Runtime.run_for world (Clock.s 30);
    !cost
  in
  (* snapshot-object update on a 4-member group: same SCD broadcast
     skeleton as the register write, but the group serves no per-key
     reads, so the row isolates the pure update/gossip cost at a
     different group size. *)
  let snapshot_cost =
    let module Snapshot = Dcp_primitives.Snapshot in
    let members = 4 in
    let world =
      Runtime.create_world ~seed:29
        ~topology:(Topology.full_mesh ~n:(members + 1) Dcp_net.Link.perfect)
        ()
    in
    let snaps =
      Array.of_list
        (Snapshot.create_group world ~nodes:(List.init members Fun.id) ~introduce_at:members ())
    in
    let cost = ref 0.0 in
    driver world ~at:members ~name:"bench_snapshot_driver" (fun ctx ->
        Runtime.sleep ctx (Clock.s 2);
        cost :=
          measure ctx (fun () ->
              for i = 1 to ops do
                ignore
                  (Snapshot.update ctx
                     ~snapshot:snaps.(i mod members)
                     ~key:(Printf.sprintf "k%d" (i mod 4))
                     ~value:(Value.int i) ~timeout:(Clock.s 2))
              done));
    Runtime.run_for world (Clock.s 30);
    !cost
  in
  Printf.printf "  %-40s %12.1f msgs/op\n%!" "sendcost.sync_send (pair)" sync_cost;
  Printf.printf "  %-40s %12.1f msgs/op\n%!" "sendcost.rpc (pair)" rpc_cost;
  Printf.printf "  %-40s %12.1f msgs/op\n%!" "sendcost.scd register write (5 members)" scd_cost;
  Printf.printf "  %-40s %12.1f msgs/op\n%!" "sendcost.scd snapshot update (4 members)" snapshot_cost;
  [
    ("sendcost.sync_send (pair) (msgs/op)", Some sync_cost);
    ("sendcost.rpc (pair) (msgs/op)", Some rpc_cost);
    ("sendcost.scd register write (5 members) (msgs/op)", Some scd_cost);
    ("sendcost.scd snapshot update (4 members) (msgs/op)", Some snapshot_cost);
  ]

let json_path = "BENCH_micro.json"

(* Row names are controlled strings (no quotes/backslashes), but escape
   defensively so the JSON stays well-formed whatever a row is called. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json ?(path = json_path) rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"dcp.bench.micro/v1\",\n  \"unit\": \"ns_per_op\",\n";
  Printf.fprintf oc "  \"nproc\": %d,\n  \"results\": [" Scaling.nproc;
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "%s\n    { \"name\": \"%s\", \"ns_per_op\": %s }"
        (if i = 0 then "" else ",")
        (json_escape name)
        (match est with Some v -> Printf.sprintf "%.1f" v | None -> "null"))
    rows;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc

(* One bechamel pass over [all_tests], silent: (name, ns/run option) in
   test order. *)
let timing_pass () =
  List.concat_map
    (fun test ->
      let instance = Instance.monotonic_clock in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
      let raw = Benchmark.all cfg [ instance ] test in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let results = Analyze.all ols instance raw in
      let pass = ref [] in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> pass := (name, Some est) :: !pass
          | Some _ | None -> pass := (name, None) :: !pass)
        results;
      (* one row per Test.make, so the hashtable holds a single binding *)
      List.rev !pass)
    all_tests

(* A wall-clock estimate is only as good as the quietest window it saw:
   co-tenant interference inflates a pass one-sidedly, so the per-row
   minimum over a few full passes converges on the undisturbed cost —
   which is the quantity the @bench-diff timing gate means to pin. *)
let timing_passes = 3

let timing_rows () =
  let merged = ref (timing_pass ()) in
  for _ = 2 to timing_passes do
    merged :=
      List.map2
        (fun (name, best) (name', est) ->
          assert (String.equal name name');
          ( name,
            match (best, est) with
            | Some a, Some b -> Some (Float.min a b)
            | (Some _ as v), None | None, v -> v ))
        !merged (timing_pass ())
  done;
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "  %-32s %12.1f ns/run\n%!" name est
      | None -> Printf.printf "  %-32s (no estimate)\n%!" name)
    !merged;
  !merged

let run () =
  print_newline ();
  Printf.printf "== Micro-benchmarks (bechamel, monotonic clock, min of %d passes) ==\n%!"
    timing_passes;
  let timing = timing_rows () in
  print_endline "== Replica macro rows (deterministic, virtual units) ==";
  let macro = replica_rows () in
  print_endline "== Message-cost rows (deterministic, msgs/op) ==";
  let sendcost = sendcost_rows () in
  print_endline "== Domain-scaling rows (wall clock, msgs/s) ==";
  let scaling = Scaling.rows () in
  write_json (timing @ macro @ sendcost @ scaling);
  Printf.printf "  wrote %s\n%!" json_path

(* The deterministic rows alone, written to their own file: being exact,
   they can be diffed against the committed baseline at a tight threshold
   inside `dune runtest` (see bench/dune), where the timing rows cannot. *)
let run_replica_gate () =
  print_newline ();
  print_endline "== Replica macro rows (deterministic, virtual units) ==";
  let macro = replica_rows () in
  print_endline "== Message-cost rows (deterministic, msgs/op) ==";
  let sendcost = sendcost_rows () in
  let path = "BENCH_replica.json" in
  write_json ~path (macro @ sendcost);
  Printf.printf "  wrote %s\n%!" path
