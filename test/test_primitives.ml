(* The derived send primitives of §3: synchronization send, RPC, patterns. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Sync_send = Dcp_primitives.Sync_send
module Rpc = Dcp_primitives.Rpc
module Patterns = Dcp_primitives.Patterns
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link
module Network = Dcp_net.Network

let make_world ?(link = Link.perfect) () =
  Runtime.create_world ~seed:11 ~topology:(Topology.full_mesh ~n:2 link) ()

let driver world ~at body =
  let name = Printf.sprintf "driver%d" (Hashtbl.hash body) in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

(* A server that echoes RPC requests; [work] lets tests tweak behaviour. *)
let rpc_server world ~at ~name handler =
  let def =
    {
      Runtime.def_name = name;
      provides = [ ([ Vtype.wildcard ], 64) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Timeout -> ()
            | `Msg (_, msg) -> handler ctx msg);
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world def;
  let g = Runtime.create_guardian world ~at ~def_name:name ~args:[] in
  List.hd (Runtime.guardian_ports g)

(* ---- Sync_send ---- *)

let test_sync_send_ack () =
  let world = make_world () in
  let server =
    rpc_server world ~at:1 ~name:"acker" (fun ctx msg -> Sync_send.acknowledge ctx msg)
  in
  let outcome = ref None in
  driver world ~at:0 (fun ctx ->
      outcome := Some (Sync_send.send ctx ~to_:server "ping" [ Value.int 1 ]));
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check bool) "received" true (!outcome = Some Sync_send.Received)

let test_sync_send_timeout_when_ignored () =
  let world = make_world () in
  let server = rpc_server world ~at:1 ~name:"ignorer" (fun _ _ -> ()) in
  let outcome = ref None in
  driver world ~at:0 (fun ctx ->
      outcome := Some (Sync_send.send ctx ~to_:server ~timeout:(Clock.ms 100) "ping" []));
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check bool) "timed out" true (!outcome = Some Sync_send.Timed_out)

let test_sync_send_failure_on_dead_port () =
  let world = make_world () in
  let outcome = ref None in
  driver world ~at:0 (fun ctx ->
      let bogus = Port_name.make ~node:1 ~guardian:424242 ~index:0 ~uid:777 in
      outcome := Some (Sync_send.send ctx ~to_:bogus ~timeout:(Clock.s 1) "ping" []));
  Runtime.run_for world (Clock.s 2);
  match !outcome with
  | Some (Sync_send.Failed _) -> ()
  | _ -> Alcotest.fail "expected Failed"

let test_sync_send_costs_two_messages () =
  let world = make_world () in
  let server =
    rpc_server world ~at:1 ~name:"acker2" (fun ctx msg -> Sync_send.acknowledge ctx msg)
  in
  driver world ~at:0 (fun ctx -> ignore (Sync_send.send ctx ~to_:server "ping" []));
  Runtime.run_for world (Clock.s 1);
  let net = Network.stats (Runtime.network world) in
  Alcotest.(check int) "request + ack" 2 net.Network.messages_sent

(* ---- Rpc ---- *)

let counting_server world ~at ~name =
  let executions = ref 0 in
  let port =
    rpc_server world ~at ~name (fun ctx msg ->
        Rpc.serve_always ctx msg ~f:(fun _ _ ->
            incr executions;
            ("done", [ Value.int !executions ])))
  in
  (port, executions)

let test_rpc_roundtrip () =
  let world = make_world () in
  let server, _ = counting_server world ~at:1 ~name:"srv" in
  let got = ref None in
  driver world ~at:0 (fun ctx ->
      got := Some (Rpc.call ctx ~to_:server "work" [ Value.int 9 ]));
  Runtime.run_for world (Clock.s 1);
  match !got with
  | Some (Rpc.Reply ("done", [ Value.Int 1 ])) -> ()
  | _ -> Alcotest.fail "expected done(1)"

let test_rpc_timeout_no_server () =
  let world = make_world () in
  let got = ref None in
  driver world ~at:0 (fun ctx ->
      let bogus = Port_name.make ~node:1 ~guardian:999999 ~index:0 ~uid:31337 in
      (* No reply port on failure messages; bogus guardian generates
         failure() which counts as Failure_msg. *)
      got := Some (Rpc.call ctx ~to_:bogus ~timeout:(Clock.ms 100) "work" []));
  Runtime.run_for world (Clock.s 1);
  match !got with
  | Some (Rpc.Failure_msg _) -> ()
  | Some Rpc.Timeout -> ()
  | _ -> Alcotest.fail "expected failure or timeout"

let test_rpc_retry_on_loss () =
  (* 30% loss each way: one attempt succeeds ~half the time; eight attempts
     essentially always (p_fail ~ 0.51^8 < 0.5%). *)
  let world = make_world ~link:(Link.lossy 0.3) () in
  let server, _ = counting_server world ~at:1 ~name:"srv" in
  let successes = ref 0 in
  driver world ~at:0 (fun ctx ->
      for _ = 1 to 20 do
        match Rpc.call ctx ~to_:server ~timeout:(Clock.ms 200) ~attempts:8 "work" [] with
        | Rpc.Reply _ -> incr successes
        | Rpc.Failure_msg _ | Rpc.Timeout -> ()
      done);
  Runtime.run_for world (Clock.s 60);
  Alcotest.(check bool)
    (Printf.sprintf "most calls succeed (%d/20)" !successes)
    true (!successes >= 18)

let test_rpc_dedup_suppresses_duplicates () =
  let world = make_world () in
  let executions = ref 0 in
  let dedup = Rpc.dedup () in
  let server =
    rpc_server world ~at:1 ~name:"once" (fun ctx msg ->
        Rpc.serve ctx ~dedup msg ~f:(fun _ _ ->
            incr executions;
            ("done", [])))
  in
  driver world ~at:0 (fun ctx ->
      (* Same request id sent twice: server must execute once, reply twice. *)
      let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
      Runtime.send ctx ~to_:server ~reply_to:(Port.name reply) "work" [ Value.int 12345 ];
      Runtime.send ctx ~to_:server ~reply_to:(Port.name reply) "work" [ Value.int 12345 ];
      ignore (Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ]);
      ignore (Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ]));
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check int) "executed once" 1 !executions

let test_rpc_serve_always_executes_duplicates () =
  let world = make_world () in
  let executions = ref 0 in
  let server =
    rpc_server world ~at:1 ~name:"every" (fun ctx msg ->
        Rpc.serve_always ctx msg ~f:(fun _ _ ->
            incr executions;
            ("done", [])))
  in
  driver world ~at:0 (fun ctx ->
      let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
      Runtime.send ctx ~to_:server ~reply_to:(Port.name reply) "work" [ Value.int 777 ];
      Runtime.send ctx ~to_:server ~reply_to:(Port.name reply) "work" [ Value.int 777 ];
      ignore (Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ]);
      ignore (Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ]));
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check int) "executed twice" 2 !executions

let test_rpc_stale_response_ignored () =
  (* A server that answers the FIRST request very late and others fast:
     the late answer to request A must not satisfy request B. *)
  let world = make_world () in
  let first = ref true in
  let server =
    rpc_server world ~at:1 ~name:"laggy" (fun ctx msg ->
        match (msg.Message.args, msg.Message.reply_to) with
        | Value.Int id :: _, Some reply ->
            if !first then begin
              first := false;
              ignore
                (Runtime.spawn ctx ~name:"late" (fun () ->
                     Runtime.sleep ctx (Clock.ms 300);
                     Runtime.send ctx ~to_:reply "done" [ Value.int id; Value.str "late" ]))
            end
            else Runtime.send ctx ~to_:reply "done" [ Value.int id; Value.str "fast" ]
        | _ -> ())
  in
  let outcomes = ref [] in
  driver world ~at:0 (fun ctx ->
      let r1 = Rpc.call ctx ~to_:server ~timeout:(Clock.ms 100) "work" [] in
      let r2 = Rpc.call ctx ~to_:server ~timeout:(Clock.ms 100) "work" [] in
      outcomes := [ r1; r2 ]);
  Runtime.run_for world (Clock.s 2);
  match !outcomes with
  | [ Rpc.Timeout; Rpc.Reply (_, [ Value.Str "fast" ]) ] -> ()
  | _ -> Alcotest.fail "first times out; second must get its own (fast) answer"

let test_rpc_request_signature () =
  let s = Rpc.request_signature "op" [ Vtype.Tstr ] ~replies:[ Vtype.reply "ok" [] ] in
  Alcotest.(check int) "id prepended" 2 (List.length s.Vtype.args);
  Alcotest.(check bool) "first is int" true (List.hd s.Vtype.args = Vtype.Tint)

(* ---- Patterns ---- *)

let test_pattern_request_response () =
  let world = make_world () in
  let server =
    rpc_server world ~at:1 ~name:"rr" (fun ctx msg ->
        match msg.Message.reply_to with
        | Some reply -> Runtime.send ctx ~to_:reply "answer" [ Value.int 42 ]
        | None -> ())
  in
  let got = ref None in
  driver world ~at:0 (fun ctx ->
      match Patterns.request_response ctx ~to_:server "ask" [] with
      | `Reply m -> got := Some m.Message.command
      | `Timeout -> ());
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check (option string)) "reply" (Some "answer") !got

let test_pattern_stream_then_confirm_message_count () =
  let world = make_world () in
  let received = ref 0 in
  let server =
    rpc_server world ~at:1 ~name:"sink" (fun ctx msg ->
        match msg.Message.command with
        | "item" -> incr received
        | "commit" -> (
            match msg.Message.reply_to with
            | Some reply -> Runtime.send ctx ~to_:reply "committed" [ Value.int !received ]
            | None -> ())
        | _ -> ())
  in
  let confirmed = ref None in
  driver world ~at:0 (fun ctx ->
      let items = List.init 10 (fun i -> ("item", [ Value.int i ])) in
      match Patterns.stream_then_confirm ctx ~to_:server ~items ~confirm:"commit" () with
      | `Confirmed m -> confirmed := Some m.Message.args
      | `Timeout -> ());
  Runtime.run_for world (Clock.s 1);
  (match !confirmed with
  | Some [ Value.Int 10 ] -> ()
  | _ -> Alcotest.fail "expected committed(10)");
  let net = Network.stats (Runtime.network world) in
  (* N items + 1 confirm + 1 response = N + 2, the no-wait advantage. *)
  Alcotest.(check int) "N+2 messages" 12 net.Network.messages_sent

let test_pattern_delegate () =
  let world = make_world () in
  (* worker answers; broker forwards to worker preserving the reply port. *)
  let worker =
    rpc_server world ~at:1 ~name:"worker" (fun ctx msg ->
        match msg.Message.reply_to with
        | Some reply -> Runtime.send ctx ~to_:reply "result" [ Value.str "from-worker" ]
        | None -> ())
  in
  let broker =
    rpc_server world ~at:1 ~name:"broker" (fun ctx msg ->
        Patterns.delegate_as ctx ~to_:worker ~command:msg.Message.command
          ~args:msg.Message.args msg)
  in
  let got = ref None in
  driver world ~at:0 (fun ctx ->
      match Patterns.request_response ctx ~to_:broker "job" [] with
      | `Reply m -> got := Some (Value.get_str (List.hd m.Message.args))
      | `Timeout -> ());
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check (option string)) "response bypassed the broker" (Some "from-worker") !got

let tests =
  [
    Alcotest.test_case "sync send acked" `Quick test_sync_send_ack;
    Alcotest.test_case "sync send timeout" `Quick test_sync_send_timeout_when_ignored;
    Alcotest.test_case "sync send failure" `Quick test_sync_send_failure_on_dead_port;
    Alcotest.test_case "sync send costs 2 msgs" `Quick test_sync_send_costs_two_messages;
    Alcotest.test_case "rpc roundtrip" `Quick test_rpc_roundtrip;
    Alcotest.test_case "rpc failure/timeout" `Quick test_rpc_timeout_no_server;
    Alcotest.test_case "rpc retry on loss" `Slow test_rpc_retry_on_loss;
    Alcotest.test_case "rpc dedup" `Quick test_rpc_dedup_suppresses_duplicates;
    Alcotest.test_case "rpc serve_always duplicates" `Quick test_rpc_serve_always_executes_duplicates;
    Alcotest.test_case "rpc stale response ignored" `Quick test_rpc_stale_response_ignored;
    Alcotest.test_case "rpc request signature" `Quick test_rpc_request_signature;
    Alcotest.test_case "pattern request/response" `Quick test_pattern_request_response;
    Alcotest.test_case "pattern stream+confirm" `Quick test_pattern_stream_then_confirm_message_count;
    Alcotest.test_case "pattern delegate" `Quick test_pattern_delegate;
  ]
