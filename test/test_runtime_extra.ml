(* Further runtime semantics: self-destruction, tokens as capabilities,
   partitions, buffer overflow failures, primordial ping, tracing. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Primordial = Dcp_core.Primordial
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Trace = Dcp_sim.Trace
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Network = Dcp_net.Network
module Link = Dcp_net.Link

let make_world ?(n = 2) ?(link = Link.perfect) () =
  Runtime.create_world ~seed:43 ~topology:(Topology.full_mesh ~n link) ()

let fresh_driver_name =
  let i = ref 0 in
  fun () ->
    incr i;
    Printf.sprintf "extra_driver_%d" !i

let driver world ~at body =
  let name = fresh_driver_name () in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

(* ---- self-destruct ---- *)

let test_self_destruct () =
  let world = make_world () in
  let stopped_after = ref false in
  let ephemeral_def =
    {
      Runtime.def_name = "ephemeral";
      provides = [ ([ Vtype.signature "poke" [] ], 8) ];
      init =
        (fun ctx _ ->
          match Runtime.receive ctx [ Runtime.port ctx 0 ] with
          | `Msg _ ->
              Runtime.self_destruct ctx;
              (* execution continues until the next suspension point *)
              stopped_after := true;
              (match Runtime.receive ctx ~timeout:(Clock.s 10) [ Runtime.port ctx 0 ] with
              | `Msg _ | `Timeout -> Alcotest.fail "dead process resumed")
          | `Timeout -> ());
      recover = None;
    }
  in
  Runtime.register_def world ephemeral_def;
  let g = Runtime.create_guardian world ~at:0 ~def_name:"ephemeral" ~args:[] in
  let port0 = List.hd (Runtime.guardian_ports g) in
  let failure_seen = ref false in
  driver world ~at:1 (fun ctx ->
      Runtime.send ctx ~to_:port0 "poke" [];
      Runtime.sleep ctx (Clock.ms 10);
      (* second poke: the guardian is gone, so failure(...) comes back *)
      let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
      Runtime.send ctx ~to_:port0 ~reply_to:(Port.name reply) "poke" [];
      match Runtime.receive ctx ~timeout:(Clock.ms 500) [ reply ] with
      | `Msg (_, msg) -> failure_seen := Message.is_failure msg
      | `Timeout -> ());
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check bool) "guardian is dead" false (Runtime.guardian_alive g);
  Alcotest.(check bool) "code after self_destruct still ran" true !stopped_after;
  Alcotest.(check bool) "second poke bounced" true !failure_seen

(* ---- tokens through the runtime ---- *)

let test_tokens_across_guardians () =
  let world = make_world () in
  let issued = ref None and owner_view = ref None and thief_view = ref (Some 0) in
  let issuer_def =
    {
      Runtime.def_name = "issuer";
      provides = [ ([ Vtype.wildcard ], 8) ];
      init =
        (fun ctx _ ->
          let token = Runtime.seal_token ctx ~obj:4242 in
          issued := Some token;
          (* a token travels through a message and comes back *)
          match Runtime.receive ctx [ Runtime.port ctx 0 ] with
          | `Msg (_, { Message.args = [ Value.Tokenv returned ]; _ }) ->
              owner_view := Runtime.unseal_token ctx returned
          | `Msg _ | `Timeout -> ());
      recover = None;
    }
  in
  Runtime.register_def world issuer_def;
  let g = Runtime.create_guardian world ~at:0 ~def_name:"issuer" ~args:[] in
  let issuer_port = List.hd (Runtime.guardian_ports g) in
  Runtime.run_for world (Clock.ms 1);
  driver world ~at:1 (fun ctx ->
      match !issued with
      | None -> Alcotest.fail "no token issued"
      | Some token ->
          (* the holder cannot unseal it *)
          thief_view := Runtime.unseal_token ctx token;
          Runtime.send ctx ~to_:issuer_port "redeem" [ Value.token token ]);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check (option int)) "owner recovers the object id" (Some 4242) !owner_view;
  Alcotest.(check (option int)) "non-owner cannot" None !thief_view

(* ---- partitions at runtime level ---- *)

let test_partition_then_heal () =
  let world = make_world ~link:Link.lan () in
  let echo_def =
    {
      Runtime.def_name = "p_echo";
      provides = [ ([ Vtype.wildcard ], 16) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Msg (_, msg) -> (
                match msg.Message.reply_to with
                | Some reply -> Runtime.send ctx ~to_:reply "pong" []
                | None -> ())
            | `Timeout -> ());
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world echo_def;
  let g = Runtime.create_guardian world ~at:1 ~def_name:"p_echo" ~args:[] in
  let echo_port = List.hd (Runtime.guardian_ports g) in
  let during = ref "" and after = ref "" in
  driver world ~at:0 (fun ctx ->
      let ask () =
        let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
        Runtime.send ctx ~to_:echo_port ~reply_to:(Port.name reply) "ping" [];
        let outcome =
          match Runtime.receive ctx ~timeout:(Clock.ms 300) [ reply ] with
          | `Msg (_, msg) -> msg.Message.command
          | `Timeout -> "timeout"
        in
        Runtime.remove_port ctx reply;
        outcome
      in
      Network.partition (Runtime.network world) [ [ 0 ]; [ 1 ] ];
      during := ask ();
      Network.heal (Runtime.network world);
      after := ask ());
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check string) "partitioned: silence" "timeout" !during;
  Alcotest.(check string) "healed: answers" "pong" !after

(* ---- port buffer overflow generates failures ---- *)

let test_port_overflow_failure () =
  let world = make_world () in
  (* a guardian that never receives: its 2-slot buffer fills instantly *)
  let lazy_def =
    {
      Runtime.def_name = "lazybones";
      provides = [ ([ Vtype.wildcard ], 2) ];
      init = (fun ctx _ -> Runtime.sleep ctx (Clock.s 100));
      recover = None;
    }
  in
  Runtime.register_def world lazy_def;
  let g = Runtime.create_guardian world ~at:1 ~def_name:"lazybones" ~args:[] in
  let port0 = List.hd (Runtime.guardian_ports g) in
  let failures = ref 0 in
  driver world ~at:0 (fun ctx ->
      let reply = Runtime.new_port ctx ~capacity:16 [ Vtype.wildcard ] in
      for i = 1 to 5 do
        Runtime.send ctx ~to_:port0 ~reply_to:(Port.name reply) "spam" [ Value.int i ]
      done;
      let rec drain () =
        match Runtime.receive ctx ~timeout:(Clock.ms 300) [ reply ] with
        | `Msg (_, msg) ->
            if Message.is_failure msg then incr failures;
            drain ()
        | `Timeout -> ()
      in
      drain ());
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check int) "three of five bounced" 3 !failures

(* ---- primordial ping ---- *)

let test_primordial_ping () =
  let world = make_world () in
  Primordial.install world;
  let got = ref "" in
  driver world ~at:0 (fun ctx ->
      let target = Primordial.port_of world 1 in
      let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
      Runtime.send ctx ~to_:target ~reply_to:(Port.name reply) "ping" [];
      match Runtime.receive ctx ~timeout:(Clock.ms 500) [ reply ] with
      | `Msg (_, msg) -> got := msg.Message.command
      | `Timeout -> got := "timeout");
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check string) "pong" "pong" !got

(* ---- the trace records the story ---- *)

let test_trace_has_send_and_discard () =
  let world = make_world () in
  driver world ~at:0 (fun ctx ->
      let bogus = Port_name.make ~node:1 ~guardian:12345 ~index:0 ~uid:54321 in
      Runtime.send ctx ~to_:bogus "into_the_void" []);
  Runtime.run_for world (Clock.s 1);
  let events = List.map snd (Trace.events (Runtime.trace world)) in
  Alcotest.(check bool) "send recorded" true
    (List.exists
       (function Runtime.Send { command = "into_the_void"; _ } -> true | _ -> false)
       events);
  Alcotest.(check bool) "discard recorded" true
    (List.exists
       (function
         | Runtime.Discard { command = "into_the_void"; reason; _ } ->
             String.equal reason "target guardian does not exist"
         | _ -> false)
       events)

(* ---- the rendered trace of a small fixed world ---- *)

let test_trace_golden_render () =
  let world = make_world () in
  let keeper =
    {
      Runtime.def_name = "keeper";
      provides = [ ([ Vtype.wildcard ], 4) ];
      init =
        (fun ctx _ ->
          match Runtime.receive ctx [ Runtime.port ctx 0 ] with `Msg _ | `Timeout -> ());
      recover = Some (fun _ -> ());
    }
  in
  Runtime.register_def world keeper;
  let keeper = Runtime.create_guardian world ~at:1 ~def_name:"keeper" ~args:[] in
  let keeper_port = List.hd (Runtime.guardian_ports keeper) in
  let caller =
    {
      Runtime.def_name = "caller";
      provides = [ ([ Vtype.wildcard ], 4) ];
      init =
        (fun ctx _ ->
          let reply = Port.name (Runtime.port ctx 0) in
          Runtime.send ctx ~to_:keeper_port ~reply_to:reply "hello" [ Value.int 42 ];
          let bogus = Port_name.make ~node:1 ~guardian:99 ~index:0 ~uid:99 in
          Runtime.send ctx ~to_:bogus "lost" [ Value.str "payload" ]);
      recover = None;
    }
  in
  Runtime.register_def world caller;
  ignore (Runtime.create_guardian world ~at:0 ~def_name:"caller" ~args:[]);
  Runtime.schedule_at world ~node:1 ~at:(Clock.ms 10) (fun () -> Runtime.crash_node world 1);
  Runtime.schedule_at world ~node:1 ~at:(Clock.ms 20) (fun () -> Runtime.restart_node world 1);
  Runtime.run_for world (Clock.s 1);
  let lines =
    Format.asprintf "%a" Trace.pp (Runtime.trace world)
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "rendered trace"
    [
      "[0ns] guardian         created keeper#0 at node 1";
      "[0ns] guardian         created caller#1 at node 0";
      "[0ns] send             caller#1 -> port<n1.g0.p0#0>: hello(..) replyto port<n0.g1.p0#1>";
      "[0ns] send             caller#1 -> port<n1.g99.p0#99>: lost(..)";
      "[0ns] discard          target guardian does not exist: lost(..)";
      "[10.000ms] crash            node 1 crashed";
      "[20.000ms] restart          node 1 restarted";
      "[20.000ms] guardian         recovered keeper#0 (replayed 0 records)";
    ]
    lines

(* ---- messages between processes of one guardian ---- *)

let test_intra_guardian_ports () =
  (* Two processes of one guardian talk through the guardian's own port:
     allowed and cheap (local path). *)
  let world = make_world () in
  let heard = ref false in
  let dual_def =
    {
      Runtime.def_name = "dual";
      provides = [ ([ Vtype.wildcard ], 8) ];
      init =
        (fun ctx _ ->
          ignore
            (Runtime.spawn ctx ~name:"speaker" (fun () ->
                 Runtime.send ctx ~to_:(Port.name (Runtime.port ctx 0)) "hello" []));
          match Runtime.receive ctx ~timeout:(Clock.s 1) [ Runtime.port ctx 0 ] with
          | `Msg (_, { Message.command = "hello"; _ }) -> heard := true
          | `Msg _ | `Timeout -> ());
      recover = None;
    }
  in
  Runtime.register_def world dual_def;
  ignore (Runtime.create_guardian world ~at:0 ~def_name:"dual" ~args:[]);
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check bool) "self-send via port" true !heard

let test_receive_foreign_port_rejected () =
  let world = make_world () in
  Primordial.install world;
  let raised = ref false in
  (* Try to receive on another guardian's port object: must be refused. *)
  let snoop_def =
    {
      Runtime.def_name = "snoop";
      provides = [ ([ Vtype.wildcard ], 8) ];
      init = (fun ctx _ -> Runtime.sleep ctx (Clock.s 10) |> fun () -> ignore ctx);
      recover = None;
    }
  in
  Runtime.register_def world snoop_def;
  let victim = Runtime.create_guardian world ~at:0 ~def_name:"snoop" ~args:[] in
  ignore victim;
  (* We cannot even obtain another guardian's Port.t through the public
     API — only its Port_name.  The runtime enforces the rest; simulate an
     attempt using our own ctx with a foreign-looking check: receive with a
     port we own works, and this test documents that the API surface makes
     cross-guardian receive inexpressible (names, not port objects, travel).
     What remains checkable is that receive on our own ports succeeds: *)
  driver world ~at:0 (fun ctx ->
      let mine = Runtime.new_port ctx [ Vtype.wildcard ] in
      match Runtime.receive ctx ~timeout:(Clock.ms 10) [ mine ] with
      | `Timeout -> raised := true (* expected: nothing arrives; no exception *)
      | `Msg _ -> ());
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check bool) "own-port receive fine; foreign Port.t unobtainable" true !raised

(* ---- primordial guardian survives crashes ---- *)

let test_primordial_recovers () =
  let world = make_world () in
  Primordial.install world;
  Runtime.register_def world
    {
      Runtime.def_name = "late_arrival";
      provides = [];
      init = (fun _ _ -> ());
      recover = None;
    };
  Runtime.run_for world (Clock.ms 1);
  Runtime.crash_node world 1;
  Runtime.restart_node world 1;
  (* The primordial guardian recovered: remote creation still works. *)
  let outcome = ref None in
  driver world ~at:0 (fun ctx ->
      outcome :=
        Some
          (Primordial.request_create ctx ~at:1 ~def_name:"late_arrival" ~args:[]
             ~timeout:(Clock.s 1)));
  Runtime.run_for world (Clock.s 2);
  match !outcome with
  | Some (`Created _) -> ()
  | _ -> Alcotest.fail "primordial did not recover"

(* ---- a send from a self-destructed guardian is dropped quietly ---- *)

let test_send_after_self_destruct_dropped () =
  let world = make_world () in
  let sent = ref false in
  let kamikaze =
    {
      Runtime.def_name = "kamikaze";
      provides = [];
      init =
        (fun ctx _ ->
          Runtime.self_destruct ctx;
          (* still running until the next suspension point: this send must
             be swallowed, not crash the runtime *)
          let bogus = Port_name.make ~node:0 ~guardian:1 ~index:0 ~uid:1 in
          Runtime.send ctx ~to_:bogus "last_words" [];
          sent := true);
      recover = None;
    }
  in
  Runtime.register_def world kamikaze;
  ignore (Runtime.create_guardian world ~at:0 ~def_name:"kamikaze" ~args:[]);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check bool) "code after the dead send ran" true !sent;
  let counters = Dcp_sim.Metrics.counters (Runtime.metrics world) in
  Alcotest.(check (option int)) "counted as dead-guardian send" (Some 1)
    (List.assoc_opt "send.dead_guardian" counters)

let tests =
  [
    Alcotest.test_case "self destruct" `Quick test_self_destruct;
    Alcotest.test_case "primordial recovers" `Quick test_primordial_recovers;
    Alcotest.test_case "dead guardian send dropped" `Quick test_send_after_self_destruct_dropped;
    Alcotest.test_case "tokens across guardians" `Quick test_tokens_across_guardians;
    Alcotest.test_case "partition then heal" `Quick test_partition_then_heal;
    Alcotest.test_case "port overflow failure" `Quick test_port_overflow_failure;
    Alcotest.test_case "primordial ping" `Quick test_primordial_ping;
    Alcotest.test_case "trace send+discard" `Quick test_trace_has_send_and_discard;
    Alcotest.test_case "trace golden render" `Quick test_trace_golden_render;
    Alcotest.test_case "intra-guardian port messaging" `Quick test_intra_guardian_ports;
    Alcotest.test_case "foreign ports unobtainable" `Quick test_receive_foreign_port_rejected;
  ]
