(* The Airline Reservation System of §2.3/§3.5: flight guardians (all three
   organizations), regional dispatch, front-desk transactions, recovery. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Rpc = Dcp_primitives.Rpc
module Types = Dcp_airline.Types
module Flight = Dcp_airline.Flight
module Regional = Dcp_airline.Regional
module Front_desk = Dcp_airline.Front_desk
module Cluster = Dcp_airline.Cluster
module Workload = Dcp_airline.Workload
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let make_world ?(n = 2) () =
  Runtime.create_world ~seed:21 ~topology:(Topology.full_mesh ~n Link.perfect) ()

let fresh_driver_name =
  let i = ref 0 in
  fun () ->
    incr i;
    Printf.sprintf "test_driver_%d" !i

let driver world ~at body =
  let name = fresh_driver_name () in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

let reserve ctx port ~passenger ~date =
  match
    Rpc.call ctx ~to_:port ~timeout:(Clock.ms 500) "reserve"
      [ Value.str passenger; Value.int date ]
  with
  | Rpc.Reply (command, _) -> command
  | Rpc.Failure_msg _ -> "failure"
  | Rpc.Timeout -> "timeout"

let cancel ctx port ~passenger ~date =
  match
    Rpc.call ctx ~to_:port ~timeout:(Clock.ms 500) "cancel"
      [ Value.str passenger; Value.int date ]
  with
  | Rpc.Reply (command, _) -> command
  | Rpc.Failure_msg _ -> "failure"
  | Rpc.Timeout -> "timeout"

let list_passengers ctx port ~date =
  match Rpc.call ctx ~to_:port ~timeout:(Clock.ms 500) "list_passengers" [ Value.int date ] with
  | Rpc.Reply ("info", [ Value.Listv names ]) -> List.map Value.get_str names
  | _ -> []

(* ---- Flight guardian ---- *)

let test_flight_reserve_cancel_cycle () =
  let world = make_world () in
  let flight =
    Flight.create world ~at:0 ~flight:7 ~capacity:2 ~service_time:(Clock.us 10) ()
  in
  let log = ref [] in
  driver world ~at:1 (fun ctx ->
      let note outcome = log := outcome :: !log in
      note (reserve ctx flight ~passenger:"alice" ~date:1);
      note (reserve ctx flight ~passenger:"alice" ~date:1);  (* idempotent *)
      note (reserve ctx flight ~passenger:"bob" ~date:1);
      note (reserve ctx flight ~passenger:"carol" ~date:1);  (* wait-listed *)
      note (cancel ctx flight ~passenger:"alice" ~date:1);   (* promotes carol *)
      note (cancel ctx flight ~passenger:"alice" ~date:1);   (* already gone *)
      log := String.concat "," (list_passengers ctx flight ~date:1) :: !log);
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check (list string))
    "full protocol"
    [ "ok"; "pre_reserved"; "ok"; "wait_list"; "canceled"; "not_reserved"; "bob,carol" ]
    (List.rev !log)

let test_flight_full_when_waitlist_exhausted () =
  let world = make_world () in
  let flight =
    Flight.create world ~at:0 ~flight:1 ~capacity:1 ~waitlist_capacity:1
      ~service_time:(Clock.us 10) ()
  in
  let outcomes = ref [] in
  driver world ~at:1 (fun ctx ->
      outcomes :=
        List.map
          (fun p -> reserve ctx flight ~passenger:p ~date:0)
          [ "a"; "b"; "c" ]);
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check (list string)) "third is full" [ "ok"; "wait_list"; "full" ] !outcomes

let test_flight_dates_independent () =
  let world = make_world () in
  let flight = Flight.create world ~at:0 ~flight:1 ~capacity:1 ~service_time:(Clock.us 10) () in
  let outcomes = ref [] in
  driver world ~at:1 (fun ctx ->
      outcomes :=
        List.map (fun d -> reserve ctx flight ~passenger:"p" ~date:d) [ 0; 1; 2 ]);
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check (list string)) "each date has a seat" [ "ok"; "ok"; "ok" ] !outcomes

(* Throughput shape of the three organizations (Figure 1 / E1): with D
   dates in flight concurrently and service time S, one-at-a-time finishes
   in ~N*S while serializer and monitor finish in ~(N/D)*S. *)
let org_finish_time organization =
  let world = make_world () in
  let service = Clock.ms 10 in
  let flight =
    Flight.create world ~at:0 ~flight:1 ~capacity:100 ~organization ~service_time:service ()
  in
  let done_count = ref 0 in
  let total = 8 in
  let finish_time = ref 0 in
  (* Eight concurrent clerks, one per date: organizations that can work
     dates in parallel finish ~8x faster. *)
  for i = 1 to total do
    driver world ~at:1 (fun ctx ->
        let outcome = reserve ctx flight ~passenger:"p" ~date:i in
        if String.equal outcome "ok" then begin
          incr done_count;
          if !done_count = total then finish_time := Runtime.now world
        end)
  done;
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check int) "all served" total !done_count;
  !finish_time

let test_organizations_concurrency_shape () =
  let t_one = org_finish_time Types.One_at_a_time in
  let t_ser = org_finish_time Types.Serializer in
  let t_mon = org_finish_time Types.Monitor in
  (* 1a must be at least ~4x slower than 1b/1c on this workload. *)
  Alcotest.(check bool)
    (Printf.sprintf "one-at-a-time (%d) >> serializer (%d)" t_one t_ser)
    true
    (t_one > 4 * t_ser);
  Alcotest.(check bool)
    (Printf.sprintf "one-at-a-time (%d) >> monitor (%d)" t_one t_mon)
    true
    (t_one > 4 * t_mon)

let test_same_date_serialized_even_in_monitor_org () =
  let world = make_world () in
  let service = Clock.ms 10 in
  let flight =
    Flight.create world ~at:0 ~flight:1 ~capacity:100 ~organization:Types.Monitor
      ~service_time:service ()
  in
  let finish = ref 0 in
  let done_count = ref 0 in
  for i = 1 to 4 do
    driver world ~at:1 (fun ctx ->
        ignore (reserve ctx flight ~passenger:(Printf.sprintf "p%d" i) ~date:5);
        incr done_count;
        if !done_count = 4 then finish := Runtime.now world)
  done;
  Runtime.run_for world (Clock.s 5);
  (* Four same-date requests at 10ms each must take >= 40ms. *)
  Alcotest.(check bool) "same date serialized" true (!finish >= Clock.ms 40)

let test_flight_permanence_across_crash () =
  let world = make_world () in
  let flight = Flight.create world ~at:0 ~flight:3 ~capacity:5 ~service_time:(Clock.us 10) () in
  let before = ref [] and after = ref [] in
  driver world ~at:1 (fun ctx ->
      ignore (reserve ctx flight ~passenger:"alice" ~date:2);
      ignore (reserve ctx flight ~passenger:"bob" ~date:2);
      ignore (cancel ctx flight ~passenger:"alice" ~date:2);
      before := list_passengers ctx flight ~date:2);
  Runtime.run_for world (Clock.s 1);
  Runtime.crash_node world 0;
  Runtime.restart_node world 0;
  driver world ~at:1 (fun ctx -> after := list_passengers ctx flight ~date:2);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check (list string)) "state before crash" [ "bob" ] !before;
  Alcotest.(check (list string)) "state recovered" [ "bob" ] !after

let test_flight_naive_counter_double_books_on_duplicates () =
  let world = make_world () in
  let flight =
    Flight.create world ~at:0 ~flight:4 ~capacity:10 ~accounting:Types.Naive_counter
      ~service_time:(Clock.us 10) ()
  in
  let seats = ref [] in
  driver world ~at:1 (fun ctx ->
      (* The same request delivered twice (e.g. a retry after a lost
         response): naive accounting books two seats. *)
      let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
      let send () =
        Runtime.send ctx ~to_:flight
          ~reply_to:(Dcp_core.Port.name reply)
          "reserve"
          [ Value.int 900001; Value.str "dup"; Value.int 0 ]
      in
      send ();
      send ();
      ignore (Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ]);
      ignore (Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ]);
      seats := list_passengers ctx flight ~date:0);
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check int) "two seats consumed by one passenger" 2 (List.length !seats)

let test_flight_idempotent_set_immune_to_duplicates () =
  let world = make_world () in
  let flight =
    Flight.create world ~at:0 ~flight:4 ~capacity:10 ~accounting:Types.Idempotent_set
      ~service_time:(Clock.us 10) ()
  in
  let seats = ref [] in
  driver world ~at:1 (fun ctx ->
      let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
      let send () =
        Runtime.send ctx ~to_:flight
          ~reply_to:(Dcp_core.Port.name reply)
          "reserve"
          [ Value.int 900002; Value.str "dup"; Value.int 0 ]
      in
      send ();
      send ();
      ignore (Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ]);
      ignore (Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ]);
      seats := list_passengers ctx flight ~date:0);
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check int) "one seat despite duplicate" 1 (List.length !seats)

(* ---- Regional manager ---- *)

let regional_fixture world =
  Regional.create world ~at:0
    ~flights:[ { Regional.flight = 10; capacity = 2 }; { Regional.flight = 11; capacity = 2 } ]
    ~service_time:(Clock.us 10) ()

let reserve_via_regional ctx regional ~flight ~passenger ~date =
  match
    Rpc.call ctx ~to_:regional ~timeout:(Clock.ms 500) "reserve"
      [ Value.int flight; Value.str passenger; Value.int date ]
  with
  | Rpc.Reply (command, _) -> command
  | Rpc.Failure_msg _ -> "failure"
  | Rpc.Timeout -> "timeout"

let test_regional_dispatch () =
  let world = make_world () in
  let regional = regional_fixture world in
  let outcomes = ref [] in
  driver world ~at:1 (fun ctx ->
      outcomes :=
        [
          reserve_via_regional ctx regional ~flight:10 ~passenger:"a" ~date:0;
          reserve_via_regional ctx regional ~flight:11 ~passenger:"a" ~date:0;
          reserve_via_regional ctx regional ~flight:99 ~passenger:"a" ~date:0;
        ]);
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check (list string))
    "dispatch + unknown flight"
    [ "ok"; "ok"; "no_such_flight" ]
    !outcomes

let test_regional_creates_flights_locally () =
  let world = make_world () in
  ignore (regional_fixture world);
  Runtime.run_for world (Clock.ms 10);
  let flights = Runtime.find_guardians world ~def_name:Flight.def_name in
  Alcotest.(check int) "two flight guardians" 2 (List.length flights);
  List.iter
    (fun g -> Alcotest.(check int) "at regional node" 0 (Runtime.guardian_node g))
    flights

let test_regional_recovery_end_to_end () =
  let world = make_world () in
  let regional = regional_fixture world in
  let before = ref "" and after = ref "" in
  driver world ~at:1 (fun ctx ->
      before := reserve_via_regional ctx regional ~flight:10 ~passenger:"p" ~date:1);
  Runtime.run_for world (Clock.s 1);
  Runtime.crash_node world 0;
  Runtime.restart_node world 0;
  driver world ~at:1 (fun ctx ->
      (* The same passenger re-reserving shows the original reservation
         survived (pre_reserved), through regional dispatch. *)
      after := reserve_via_regional ctx regional ~flight:10 ~passenger:"p" ~date:1);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check string) "reserved before crash" "ok" !before;
  Alcotest.(check string) "reservation survived" "pre_reserved" !after

(* ---- Front desk / transactions (Figure 5) ---- *)

let front_desk_fixture world =
  let regional = regional_fixture world in
  (Front_desk.create world ~at:1 ~regionals:[ regional ] (), regional)

let begin_transaction ctx front_desk ~passenger =
  match
    Rpc.call ctx ~to_:front_desk ~timeout:(Clock.ms 500) "begin_transaction"
      [ Value.str passenger ]
  with
  | Rpc.Reply ("transaction", [ Value.Portv port ]) -> Some port
  | _ -> None

let trans_call ctx trans command args =
  match Rpc.call ctx ~to_:trans ~timeout:(Clock.s 1) command args with
  | Rpc.Reply (command, args) -> (command, args)
  | Rpc.Failure_msg reason -> ("failure", [ Value.str reason ])
  | Rpc.Timeout -> ("timeout", [])

let test_transaction_reserve_and_finish () =
  let world = make_world () in
  let front_desk, regional = front_desk_fixture world in
  let log = ref [] in
  driver world ~at:1 (fun ctx ->
      match begin_transaction ctx front_desk ~passenger:"zoe" with
      | None -> log := [ ("begin_failed", []) ]
      | Some trans ->
          let note x = log := x :: !log in
          note (trans_call ctx trans "reserve" [ Value.int 10; Value.int 3 ]);
          note (trans_call ctx trans "reserve" [ Value.int 11; Value.int 3 ]);
          note (trans_call ctx trans "finish" []);
          (* Direct check through the regional manager. *)
          let direct =
            reserve_via_regional ctx regional ~flight:10 ~passenger:"zoe" ~date:3
          in
          note (direct, []));
  Runtime.run_for world (Clock.s 3);
  match List.rev !log with
  | [ ("ok", _); ("ok", _); ("finished", [ Value.Int 0; Value.Int 0 ]); ("pre_reserved", _) ] ->
      ()
  | other ->
      Alcotest.failf "unexpected transcript: %s"
        (String.concat "; " (List.map (fun (c, _) -> c) other))

let test_transaction_deferred_cancel_runs_at_finish () =
  let world = make_world () in
  let front_desk, regional = front_desk_fixture world in
  let seats_mid = ref [] and seats_end = ref "" in
  driver world ~at:1 (fun ctx ->
      (match begin_transaction ctx front_desk ~passenger:"yan" with
      | None -> ()
      | Some trans ->
          ignore (trans_call ctx trans "reserve" [ Value.int 10; Value.int 4 ]);
          ignore (trans_call ctx trans "cancel" [ Value.int 10; Value.int 4 ]);
          (* Cancel is deferred: the seat is still held here. *)
          (match
             Rpc.call ctx ~to_:regional ~timeout:(Clock.ms 500) "list_passengers"
               [ Value.int 10; Value.int 4 ]
           with
          | Rpc.Reply ("info", [ Value.Listv names ]) ->
              seats_mid := List.map Value.get_str names
          | _ -> ());
          ignore (trans_call ctx trans "finish" []));
      (* After finish the deferred cancel has run. *)
      seats_end :=
        reserve_via_regional ctx regional ~flight:10 ~passenger:"other" ~date:4);
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check (list string)) "seat held mid-transaction" [ "yan" ] !seats_mid;
  Alcotest.(check string) "seat free after finish" "ok" !seats_end

let test_transaction_undo () =
  let world = make_world () in
  let front_desk, regional = front_desk_fixture world in
  let outcome = ref "" in
  driver world ~at:1 (fun ctx ->
      (match begin_transaction ctx front_desk ~passenger:"uma" with
      | None -> ()
      | Some trans ->
          ignore (trans_call ctx trans "reserve" [ Value.int 10; Value.int 5 ]);
          ignore (trans_call ctx trans "undo" []);
          ignore (trans_call ctx trans "finish" []));
      outcome := reserve_via_regional ctx regional ~flight:10 ~passenger:"vic" ~date:5;
      (* capacity 2: uma's undone seat must be free, so vic and wes fit *)
      ignore (reserve_via_regional ctx regional ~flight:10 ~passenger:"wes" ~date:5));
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check string) "undone seat reusable" "ok" !outcome

let test_transaction_undo_nothing () =
  let world = make_world () in
  let front_desk, _ = front_desk_fixture world in
  let reply = ref "" in
  driver world ~at:1 (fun ctx ->
      match begin_transaction ctx front_desk ~passenger:"nil" with
      | None -> ()
      | Some trans ->
          let command, _ = trans_call ctx trans "undo" [] in
          reply := command);
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check string) "nothing to undo" "nothing_to_undo" !reply

let test_transactions_forgotten_after_crash () =
  (* Three nodes so the observing clerk survives the front desk's crash. *)
  let world = make_world ~n:3 () in
  let front_desk, _ = front_desk_fixture world in
  let first = ref "" and second = ref None in
  driver world ~at:2 (fun ctx ->
      match begin_transaction ctx front_desk ~passenger:"kim" with
      | None -> first := "begin_failed"
      | Some trans ->
          let command, _ = trans_call ctx trans "reserve" [ Value.int 10; Value.int 6 ] in
          first := command;
          (* The front-desk node crashes mid-transaction. *)
          Runtime.crash_node world 1;
          Runtime.restart_node world 1;
          Runtime.sleep ctx (Clock.ms 10);
          (* The old transaction port is gone: the clerk gets failure, not
             silence, and must start a new transaction (§3.5). *)
          let command, _ = trans_call ctx trans "reserve" [ Value.int 11; Value.int 6 ] in
          second := Some command);
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check string) "first reserve fine" "ok" !first;
  match !second with
  | Some ("failure" | "timeout") -> ()
  | other -> Alcotest.failf "stale transaction should fail, got %s" (Option.value other ~default:"none")

(* ---- Cluster smoke ---- *)

let test_cluster_runs_and_reserves () =
  let params =
    {
      Cluster.default_params with
      regions = 2;
      flights_per_region = 2;
      clerks_per_region = 1;
      service_time = Clock.us 100;
      clerk =
        {
          Workload.default_config with
          transactions = 2;
          requests_per_transaction = 4;
          think_time = Clock.ms 1;
          flights = 4;
          dates = 5;
        };
    }
  in
  let cluster = Cluster.build params in
  let report = Cluster.run cluster ~duration:(Clock.s 10) in
  Alcotest.(check bool)
    (Printf.sprintf "some requests succeeded (%d)" report.Cluster.requests_ok)
    true
    (report.Cluster.requests_ok > 0);
  Alcotest.(check bool)
    (Printf.sprintf "transactions completed (%d)" report.Cluster.transactions_completed)
    true
    (report.Cluster.transactions_completed >= 2)

let tests =
  [
    Alcotest.test_case "reserve/cancel/waitlist cycle" `Quick test_flight_reserve_cancel_cycle;
    Alcotest.test_case "full when waitlist exhausted" `Quick test_flight_full_when_waitlist_exhausted;
    Alcotest.test_case "dates independent" `Quick test_flight_dates_independent;
    Alcotest.test_case "Fig.1 organizations concurrency" `Quick test_organizations_concurrency_shape;
    Alcotest.test_case "same date serialized (monitor)" `Quick test_same_date_serialized_even_in_monitor_org;
    Alcotest.test_case "permanence across crash" `Quick test_flight_permanence_across_crash;
    Alcotest.test_case "naive counter double-books" `Quick test_flight_naive_counter_double_books_on_duplicates;
    Alcotest.test_case "idempotent set immune" `Quick test_flight_idempotent_set_immune_to_duplicates;
    Alcotest.test_case "regional dispatch" `Quick test_regional_dispatch;
    Alcotest.test_case "flights live at regional node" `Quick test_regional_creates_flights_locally;
    Alcotest.test_case "regional recovery" `Quick test_regional_recovery_end_to_end;
    Alcotest.test_case "transaction reserve+finish" `Quick test_transaction_reserve_and_finish;
    Alcotest.test_case "deferred cancel at finish" `Quick test_transaction_deferred_cancel_runs_at_finish;
    Alcotest.test_case "undo frees the seat" `Quick test_transaction_undo;
    Alcotest.test_case "undo with empty history" `Quick test_transaction_undo_nothing;
    Alcotest.test_case "transactions forgotten after crash" `Quick test_transactions_forgotten_after_crash;
    Alcotest.test_case "cluster smoke" `Quick test_cluster_runs_and_reserves;
  ]
