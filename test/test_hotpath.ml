(* Regression tests for the hot-path overhaul: per-attempt RPC deadlines,
   stable port indices, bounded waiter lists, link composition algebra,
   Hashtbl-backed metrics/guardian registries, the O(1) engine pending
   count, and the allocation cost of world set-up and of one round trip. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock
module Engine = Dcp_sim.Engine
module Metrics = Dcp_sim.Metrics
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let make_world ?(link = Link.perfect) () =
  Runtime.create_world ~seed:23 ~topology:(Topology.full_mesh ~n:2 link) ()

let driver world ~at body =
  let name = Printf.sprintf "driver%d" (Hashtbl.hash body) in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

(* ---- Rpc.call: stale replies must not extend the per-attempt deadline ---- *)

let test_rpc_stale_flood_deadline () =
  let world = make_world () in
  (* The server never answers the request; instead it floods the caller's
     reply port with responses to a *different* request id, one every 150ms
     for 3s.  With the timeout restarted per message the call would stretch
     to ~4s; with a per-attempt deadline it times out at exactly 1s. *)
  let flood_def =
    {
      Runtime.def_name = "staler";
      provides = [ ([ Vtype.wildcard ], 64) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Timeout -> ()
            | `Msg (_, msg) -> (
                match (msg.Message.args, msg.Message.reply_to) with
                | Value.Int id :: _, Some reply ->
                    ignore
                      (Runtime.spawn ctx ~name:"flood" (fun () ->
                           for _ = 1 to 20 do
                             Runtime.sleep ctx (Clock.ms 150);
                             Runtime.send ctx ~to_:reply "done" [ Value.int (id + 1000) ]
                           done))
                | _ -> ()));
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world flood_def;
  let server = Runtime.create_guardian world ~at:1 ~def_name:"staler" ~args:[] in
  let server_port = List.hd (Runtime.guardian_ports server) in
  let outcome = ref None in
  let elapsed = ref Clock.zero in
  driver world ~at:0 (fun ctx ->
      let t0 = Runtime.ctx_now ctx in
      let r = Rpc.call ctx ~to_:server_port ~timeout:(Clock.s 1) ~attempts:1 "work" [] in
      elapsed := Clock.diff (Runtime.ctx_now ctx) t0;
      outcome := Some r);
  Runtime.run_for world (Clock.s 10);
  (match !outcome with
  | Some Rpc.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout despite the stale-reply flood");
  Alcotest.(check bool)
    (Format.asprintf "attempt bounded by its deadline (took %a)" Clock.pp !elapsed)
    true
    (Clock.compare !elapsed (Clock.ms 1100) <= 0)

(* ---- dedup: bounded cache evicts oldest, O(1) per insert ---- *)

let test_rpc_dedup_eviction_order () =
  let world = make_world () in
  let executions = ref 0 in
  let dedup = Rpc.dedup ~capacity:2 () in
  let server_def =
    {
      Runtime.def_name = "tiny_cache";
      provides = [ ([ Vtype.wildcard ], 64) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Timeout -> ()
            | `Msg (_, msg) ->
                Rpc.serve ctx ~dedup msg ~f:(fun _ _ ->
                    incr executions;
                    ("done", [])));
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world server_def;
  let server = Runtime.create_guardian world ~at:1 ~def_name:"tiny_cache" ~args:[] in
  let server_port = List.hd (Runtime.guardian_ports server) in
  driver world ~at:0 (fun ctx ->
      let call id = ignore (Rpc.call ctx ~to_:server_port ~request_id:id "work" []) in
      call 1;
      call 2;
      call 3;
      (* capacity 2: inserting id 3 evicted id 1 ... *)
      call 1;
      (* ... so id 1 re-executes; id 3 is still cached and must not. *)
      call 3);
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check int) "1,2,3 executed, replay of 1 re-executed, 3 cached" 4 !executions

(* ---- port indices: minted monotonically, stable across removal ---- *)

let test_port_index_stable_after_removal () =
  let world = make_world () in
  let indices = ref [] in
  let lookup_ok = ref false in
  driver world ~at:0 (fun ctx ->
      let p1 = Runtime.new_port ctx [ Vtype.wildcard ] in
      let p2 = Runtime.new_port ctx [ Vtype.wildcard ] in
      Runtime.remove_port ctx p1;
      let p3 = Runtime.new_port ctx [ Vtype.wildcard ] in
      let idx p = (Port.name p).Port_name.index in
      indices := [ idx p1; idx p2; idx p3 ];
      (* positional lookup resolves by minted index, not list position *)
      lookup_ok :=
        Port_name.equal (Port.name (Runtime.port ctx (idx p2))) (Port.name p2)
        && Port_name.equal (Port.name (Runtime.port ctx (idx p3))) (Port.name p3));
  Runtime.run_for world (Clock.s 1);
  (match !indices with
  | [ 0; 1; 2 ] -> ()
  | l ->
      Alcotest.failf "expected indices [0;1;2], got [%s]"
        (String.concat ";" (List.map string_of_int l)));
  Alcotest.(check bool) "Runtime.port finds ports by their index" true !lookup_ok

(* ---- receive: waiters deregister from every port on timeout/resume ---- *)

let test_waiter_lists_bounded_under_timeouts () =
  let world = make_world () in
  let ports = ref None in
  let got_late = ref false in
  let listener_def =
    {
      Runtime.def_name = "listener";
      provides = [ ([ Vtype.wildcard ], 64); ([ Vtype.wildcard ], 64) ];
      init =
        (fun ctx _ ->
          let a = Runtime.port ctx 0 and b = Runtime.port ctx 1 in
          ports := Some (a, b);
          (* a heartbeat-style loop: 50 timed-out receives over both ports *)
          for _ = 1 to 50 do
            match Runtime.receive ctx ~timeout:(Clock.ms 1) [ a; b ] with
            | `Timeout -> ()
            | `Msg _ -> ()
          done;
          (* then block on both; a message on [b] must also clear [a] *)
          match Runtime.receive ctx ~timeout:(Clock.s 5) [ a; b ] with
          | `Msg (p, _) when Port_name.equal (Port.name p) (Port.name b) -> got_late := true
          | `Msg _ | `Timeout -> ());
      recover = None;
    }
  in
  Runtime.register_def world listener_def;
  let listener = Runtime.create_guardian world ~at:0 ~def_name:"listener" ~args:[] in
  let port_b = List.nth (Runtime.guardian_ports listener) 1 in
  Runtime.run_for world (Clock.ms 500);
  let a, b = Option.get !ports in
  (* 50 timed-out receives left nothing behind; only the final blocking
     receive is registered, once per port (pre-fix: 51 dead entries each). *)
  Alcotest.(check int) "a holds just the live waiter" 1 (Port.waiter_count a);
  Alcotest.(check int) "b holds just the live waiter" 1 (Port.waiter_count b);
  driver world ~at:0 (fun ctx -> Runtime.send ctx ~to_:port_b "wake" []);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check bool) "late message delivered via b" true !got_late;
  Alcotest.(check int) "resuming via b cleared a's waiter" 0 (Port.waiter_count a);
  Alcotest.(check int) "b's waiter consumed by delivery" 0 (Port.waiter_count b)

(* ---- link composition: duplicate composes like loss/corrupt ---- *)

let test_link_compose_duplicate () =
  let a = { Link.perfect with Link.loss = 0.1; duplicate = 0.1; corrupt = 0.2 } in
  let b = { Link.perfect with Link.loss = 0.1; duplicate = 0.1; corrupt = 0.2 } in
  let c = Link.compose a b in
  let close expect got name = Alcotest.(check (float 1e-9)) name expect got in
  close 0.19 c.Link.loss "loss = 1-(1-a)(1-b)";
  close 0.19 c.Link.duplicate "duplicate = 1-(1-a)(1-b)";
  close 0.36 c.Link.corrupt "corrupt = 1-(1-a)(1-b)";
  (* identity and symmetry *)
  let id = Link.compose a Link.perfect in
  close a.Link.duplicate id.Link.duplicate "perfect is identity for duplicate";
  let cba = Link.compose b a in
  close c.Link.duplicate cba.Link.duplicate "composition is symmetric"

(* ---- metrics registry: O(1) get-or-create at 1k+ distinct names ---- *)

let test_metrics_registry_many_names () =
  let r = Metrics.registry () in
  let n = 1500 in
  for i = 0 to n - 1 do
    let c = Metrics.counter r (Printf.sprintf "c.%d" i) in
    for _ = 0 to i mod 7 do
      Metrics.incr c
    done
  done;
  (* get-or-create must return the same instrument, not a fresh one *)
  Metrics.add (Metrics.counter r "c.42") 100;
  Alcotest.(check int) "same counter instance" (100 + 1 + (42 mod 7))
    (Metrics.count (Metrics.counter r "c.42"));
  let listed = Metrics.counters r in
  Alcotest.(check int) "all names listed" n (List.length listed);
  (* reports preserve creation order *)
  Alcotest.(check string) "first created listed first" "c.0" (fst (List.hd listed));
  Alcotest.(check string) "last created listed last" (Printf.sprintf "c.%d" (n - 1))
    (fst (List.nth listed (n - 1)));
  List.iteri
    (fun i (name, v) ->
      if name = Printf.sprintf "c.%d" i then begin
        let expect = 1 + (i mod 7) + if i = 42 then 100 else 0 in
        if v <> expect then Alcotest.failf "counter %s: expected %d, got %d" name expect v
      end
      else Alcotest.failf "creation order broken at %d: %s" i name)
    listed;
  (* histograms share the registry without clashing with counters *)
  for i = 0 to 99 do
    Metrics.observe (Metrics.histogram r (Printf.sprintf "h.%d" i)) (float_of_int i)
  done;
  Alcotest.(check int) "histograms listed" 100 (List.length (Metrics.histograms r));
  Alcotest.(check int) "histogram samples" 1
    (Metrics.samples (Metrics.histogram r "h.7"))

(* ---- engine: pending is exact (and O(1)) through cancel/fire ---- *)

let test_engine_pending_exact () =
  let e = Engine.create () in
  let timers = List.init 100 (fun i -> Engine.schedule_after e ~delay:(Clock.ms i) (fun () -> ())) in
  Alcotest.(check int) "all scheduled" 100 (Engine.pending e);
  List.iteri (fun i t -> if i mod 2 = 0 then Engine.cancel t) timers;
  Alcotest.(check int) "half cancelled" 50 (Engine.pending e);
  (* double cancel must not double-decrement *)
  List.iteri (fun i t -> if i mod 2 = 0 then Engine.cancel t) timers;
  Alcotest.(check int) "re-cancel is a no-op" 50 (Engine.pending e);
  ignore (Engine.step e);
  Alcotest.(check int) "one fired" 49 (Engine.pending e);
  (* cancelling an already-fired timer must not decrement *)
  List.iter Engine.cancel timers;
  Alcotest.(check int) "cancel after fire is a no-op" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

(* ---- guardian lookup: def-name index returns creation order ---- *)

let test_find_guardians_creation_order () =
  let world = make_world () in
  let def =
    { Runtime.def_name = "indexed"; provides = []; init = (fun _ _ -> ()); recover = None }
  in
  Runtime.register_def world def;
  let made =
    List.init 5 (fun i ->
        Runtime.guardian_id
          (Runtime.create_guardian world ~at:(i mod 2) ~def_name:"indexed" ~args:[]))
  in
  let found = List.map Runtime.guardian_id (Runtime.find_guardians world ~def_name:"indexed") in
  Alcotest.(check (list int)) "creation order, across nodes" made found;
  Alcotest.(check (list int)) "unknown def -> []" []
    (List.map Runtime.guardian_id (Runtime.find_guardians world ~def_name:"nope"))

(* ---- allocation pins: world set-up and the round trip ---- *)

(* A trace ring that allocated its 16,384 slots (128 KiB per array) at
   creation or at the first record would show here.  [Gc.allocated_bytes] counts
   major-heap blocks too, which is where an array that size lands, so it
   catches what [Gc.minor_words] would miss. *)
let test_setup_allocation () =
  let before = Gc.allocated_bytes () in
  let world =
    Runtime.create_world ~seed:3 ~topology:(Topology.full_mesh ~n:4 Link.perfect) ~shards:1 ()
  in
  let def =
    {
      Runtime.def_name = "setup_pin";
      provides = [ ([ Vtype.wildcard ], 64) ];
      init = (fun _ _ -> ());
      recover = None;
    }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at:0 ~def_name:"setup_pin" ~args:[]);
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "set-up allocated %.0f bytes, under 64 KiB" bytes)
    true
    (bytes < 65536.)

(* Minor words per ping/pong round trip between two guardians on one node:
   the send path must not format a string (or anything else) per message.
   Returns the world too, for the trace it leaves. *)
let round_trip ~pings =
  let world = Runtime.create_world ~seed:7 ~topology:(Topology.full_mesh ~n:1 Link.perfect) () in
  let echo_def =
    {
      Runtime.def_name = "words_echo";
      provides = [ ([ Vtype.wildcard ], 64) ];
      init =
        (fun ctx _ ->
          let rec loop () =
            (match Runtime.receive ctx [ Runtime.port ctx 0 ] with
            | `Timeout -> ()
            | `Msg (_, msg) -> (
                match msg.Message.reply_to with
                | Some reply -> Runtime.send ctx ~to_:reply "pong" []
                | None -> ()));
            loop ()
          in
          loop ());
      recover = None;
    }
  in
  Runtime.register_def world echo_def;
  let echo = Runtime.create_guardian world ~at:0 ~def_name:"words_echo" ~args:[] in
  let echo_port = List.hd (Runtime.guardian_ports echo) in
  let client_def =
    {
      Runtime.def_name = "words_client";
      provides = [];
      init =
        (fun ctx _ ->
          let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
          for _ = 1 to pings do
            Runtime.send ctx ~to_:echo_port ~reply_to:(Port.name reply) "ping" [];
            match Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ] with `Msg _ | `Timeout -> ()
          done);
      recover = None;
    }
  in
  Runtime.register_def world client_def;
  ignore (Runtime.create_guardian world ~at:0 ~def_name:"words_client" ~args:[]);
  let before = Gc.minor_words () in
  Runtime.run world;
  (world, (Gc.minor_words () -. before) /. float_of_int pings)

(* 375.9 measured: the envelope is encoded and decoded without a Value
   tree (899.9 when it went through one). *)
let test_round_trip_words () =
  let _, words = round_trip ~pings:2000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per round trip <= 450" words)
    true (words <= 450.)

(* One envelope encode + decode of an argument-less [ping] with a reply
   port, the runtime's per-message framing cost: 42.0 measured, against
   337 through Message.envelope, Codec and Message.of_envelope. *)
let test_envelope_words () =
  let config = Codec.default_config in
  let enc = Codec.encoder ~config () in
  let target = Port_name.make ~node:0 ~guardian:1 ~index:0 ~uid:4 in
  let reply_to = Some (Port_name.make ~node:0 ~guardian:2 ~index:0 ~uid:7) in
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    match Codec.encode_envelope enc ~target ~command:"ping" ~args:[] ~reply_to ~sent_at:1_000_000 with
    | Error _ -> Alcotest.fail "ping does not encode"
    | Ok body -> (
        match Codec.decode_envelope ~config body with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "ping does not decode")
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per envelope encode+decode <= 48" words)
    true (words <= 48.)

(* The runtime's trace keeps the newest 16,384 events and counts the rest:
   each round trip records two sends, and set-up two creations. *)
let test_trace_bound () =
  let pings = 9_000 in
  let world, _ = round_trip ~pings in
  let trace = Runtime.trace world in
  Alcotest.(check int) "ring holds its bound" 16_384 (Dcp_sim.Trace.size trace);
  Alcotest.(check int) "total counts every send" ((2 * pings) + 2) (Dcp_sim.Trace.total trace);
  Alcotest.(check int) "retained sends" 16_384
    (List.length (Dcp_sim.Trace.find trace ~category:"send"))

let tests =
  [
    Alcotest.test_case "rpc stale flood bounded by deadline" `Quick test_rpc_stale_flood_deadline;
    Alcotest.test_case "rpc dedup evicts oldest O(1)" `Quick test_rpc_dedup_eviction_order;
    Alcotest.test_case "port index stable after removal" `Quick test_port_index_stable_after_removal;
    Alcotest.test_case "waiter lists bounded" `Quick test_waiter_lists_bounded_under_timeouts;
    Alcotest.test_case "link compose duplicate" `Quick test_link_compose_duplicate;
    Alcotest.test_case "metrics registry 1.5k names" `Quick test_metrics_registry_many_names;
    Alcotest.test_case "engine pending exact" `Quick test_engine_pending_exact;
    Alcotest.test_case "find_guardians indexed" `Quick test_find_guardians_creation_order;
    Alcotest.test_case "world set-up allocates no trace ring" `Quick test_setup_allocation;
    Alcotest.test_case "round trip <= 450 minor words" `Quick test_round_trip_words;
    Alcotest.test_case "envelope encode+decode <= 48 minor words" `Quick test_envelope_words;
    Alcotest.test_case "runtime trace keeps 16384 events" `Quick test_trace_bound;
  ]
