(* Core building blocks below the runtime: processes, ports, sync. *)

open Dcp_wire
module Process = Dcp_core.Process
module Port = Dcp_core.Port
module Sync = Dcp_core.Sync
module Message = Dcp_core.Message
module Engine = Dcp_sim.Engine
module Clock = Dcp_sim.Clock

let msg command = Message.make ~sent_at:0 command []

(* ---- Process ---- *)

let test_process_runs () =
  let e = Engine.create () in
  let ran = ref false in
  let p = Process.spawn e ~name:"t" (fun () -> ran := true) in
  Alcotest.(check bool) "not yet" false !ran;
  Engine.run e;
  Alcotest.(check bool) "ran" true !ran;
  Alcotest.(check bool) "finished" true (Process.state p = Process.Finished)

let test_process_sleep_advances_clock () =
  let e = Engine.create () in
  let woke_at = ref 0 in
  ignore
    (Process.spawn e ~name:"sleeper" (fun () ->
         Process.sleep e (Clock.ms 5);
         woke_at := Engine.now e));
  Engine.run e;
  Alcotest.(check int) "slept 5ms" (Clock.ms 5) !woke_at

let test_process_interleaving () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag = log := tag :: !log in
  ignore
    (Process.spawn e ~name:"a" (fun () ->
         note "a1";
         Process.sleep e (Clock.ms 2);
         note "a2"));
  ignore
    (Process.spawn e ~name:"b" (fun () ->
         note "b1";
         Process.sleep e (Clock.ms 1);
         note "b2"));
  Engine.run e;
  Alcotest.(check (list string)) "interleaved by time" [ "a1"; "b1"; "b2"; "a2" ] (List.rev !log)

let test_process_kill_before_start () =
  let e = Engine.create () in
  let ran = ref false in
  let p = Process.spawn e ~name:"t" (fun () -> ran := true) in
  Process.kill p;
  Engine.run e;
  Alcotest.(check bool) "never ran" false !ran;
  Alcotest.(check bool) "dead" true (Process.state p = Process.Dead)

let test_process_kill_while_blocked () =
  let e = Engine.create () in
  let resumed = ref false in
  let p =
    Process.spawn e ~name:"t" (fun () ->
        Process.sleep e (Clock.ms 10);
        resumed := true)
  in
  ignore (Engine.schedule e ~at:(Clock.ms 1) (fun () -> Process.kill p));
  Engine.run e;
  Alcotest.(check bool) "sleep never returns" false !resumed

let test_process_exception_recorded () =
  let e = Engine.create () in
  let p = Process.spawn e ~name:"t" (fun () -> failwith "boom") in
  Engine.run e;
  Alcotest.(check bool) "finished" true (Process.state p = Process.Finished);
  match Process.failure p with
  | Some (Failure reason) -> Alcotest.(check string) "reason" "boom" reason
  | _ -> Alcotest.fail "expected recorded failure"

let test_process_double_resume_ignored () =
  let e = Engine.create () in
  let wakeups = ref 0 in
  ignore
    (Process.spawn e ~name:"t" (fun () ->
         Process.suspend (fun resume ->
             ignore (Engine.schedule_after e ~delay:1 (fun () -> resume ()));
             ignore (Engine.schedule_after e ~delay:2 (fun () -> resume ())));
         incr wakeups));
  Engine.run e;
  Alcotest.(check int) "woken exactly once" 1 !wakeups

(* ---- Port ---- *)

let mk_port ?(capacity = 4) () =
  Port.create
    ~name:(Port_name.make ~node:0 ~guardian:0 ~index:0 ~uid:1)
    ~ptype:[ Vtype.wildcard ] ~capacity

let test_port_queueing () =
  let p = mk_port () in
  Alcotest.(check bool) "queued" true (Port.enqueue p (msg "a") = `Queued);
  Alcotest.(check int) "one queued" 1 (Port.queued p)

let test_port_capacity () =
  let p = mk_port ~capacity:2 () in
  ignore (Port.enqueue p (msg "a"));
  ignore (Port.enqueue p (msg "b"));
  Alcotest.(check bool) "full" true (Port.enqueue p (msg "c") = `Full)

let test_port_closed () =
  let p = mk_port () in
  ignore (Port.enqueue p (msg "a"));
  Port.close p;
  Alcotest.(check bool) "closed" true (Port.enqueue p (msg "b") = `Closed);
  Alcotest.(check int) "buffer dropped" 0 (Port.queued p);
  Port.reopen p;
  Alcotest.(check bool) "reopened accepts" true (Port.enqueue p (msg "c") = `Queued)

let test_port_receive_immediate () =
  let e = Engine.create () in
  let p = mk_port () in
  ignore (Port.enqueue p (msg "hello"));
  let got = ref "" in
  ignore
    (Process.spawn e ~name:"r" (fun () ->
         match Port.receive e ~ports:[ p ] ~timeout:None with
         | `Msg (_, m) -> got := m.Message.command
         | `Timeout -> ()));
  Engine.run e;
  Alcotest.(check string) "got queued message" "hello" !got

let test_port_receive_blocks_until_enqueue () =
  let e = Engine.create () in
  let p = mk_port () in
  let got = ref "" in
  ignore
    (Process.spawn e ~name:"r" (fun () ->
         match Port.receive e ~ports:[ p ] ~timeout:None with
         | `Msg (_, m) -> got := m.Message.command
         | `Timeout -> ()));
  ignore
    (Engine.schedule e ~at:(Clock.ms 3) (fun () ->
         Alcotest.(check bool) "handed to waiter" true (Port.enqueue p (msg "late") = `Delivered)));
  Engine.run e;
  Alcotest.(check string) "woke with message" "late" !got

let test_port_priority_order () =
  let e = Engine.create () in
  let high = mk_port () in
  let low =
    Port.create
      ~name:(Port_name.make ~node:0 ~guardian:0 ~index:1 ~uid:2)
      ~ptype:[ Vtype.wildcard ] ~capacity:4
  in
  ignore (Port.enqueue low (msg "low"));
  ignore (Port.enqueue high (msg "high"));
  let got = ref "" in
  ignore
    (Process.spawn e ~name:"r" (fun () ->
         match Port.receive e ~ports:[ high; low ] ~timeout:None with
         | `Msg (_, m) -> got := m.Message.command
         | `Timeout -> ()));
  Engine.run e;
  Alcotest.(check string) "earlier port wins" "high" !got

let test_port_two_waiters_fifo () =
  let e = Engine.create () in
  let p = mk_port () in
  let order = ref [] in
  let receiver tag =
    ignore
      (Process.spawn e ~name:tag (fun () ->
           match Port.receive e ~ports:[ p ] ~timeout:None with
           | `Msg (_, m) -> order := (tag, m.Message.command) :: !order
           | `Timeout -> ()))
  in
  receiver "first";
  ignore (Engine.schedule e ~at:1 (fun () -> receiver "second"));
  ignore (Engine.schedule e ~at:(Clock.ms 1) (fun () -> ignore (Port.enqueue p (msg "m1"))));
  ignore (Engine.schedule e ~at:(Clock.ms 2) (fun () -> ignore (Port.enqueue p (msg "m2"))));
  Engine.run e;
  Alcotest.(check (list (pair string string)))
    "FIFO handoff"
    [ ("first", "m1"); ("second", "m2") ]
    (List.rev !order)

let test_port_timeout_then_late_message_stays () =
  let e = Engine.create () in
  let p = mk_port () in
  let outcome = ref "" in
  ignore
    (Process.spawn e ~name:"r" (fun () ->
         match Port.receive e ~ports:[ p ] ~timeout:(Some (Clock.ms 1)) with
         | `Msg _ -> outcome := "msg"
         | `Timeout -> outcome := "timeout"));
  ignore (Engine.schedule e ~at:(Clock.ms 5) (fun () -> ignore (Port.enqueue p (msg "late"))));
  Engine.run e;
  Alcotest.(check string) "timed out" "timeout" !outcome;
  Alcotest.(check int) "late message buffered for next receive" 1 (Port.queued p)

(* A zero timeout is the non-blocking poll. *)
let test_try_receive () =
  let e = Engine.create () in
  let p = mk_port () in
  let poll () =
    match Port.receive e ~ports:[ p ] ~timeout:(Some 0) with
    | `Msg (_, m) -> Some m.Message.command
    | `Timeout -> None
  in
  let polled = ref [] in
  ignore
    (Process.spawn e ~name:"poller" (fun () ->
         let empty = poll () in
         ignore (Port.enqueue p (msg "x"));
         polled := [ empty; poll () ]));
  Engine.run e;
  match !polled with
  | [ empty; popped ] ->
      Alcotest.(check (option string)) "empty" None empty;
      Alcotest.(check (option string)) "popped" (Some "x") popped
  | _ -> Alcotest.fail "poller did not finish"

(* ---- Sync ---- *)

let test_mutex_exclusion () =
  let e = Engine.create () in
  let m = Sync.mutex e in
  let in_critical = ref 0 and max_seen = ref 0 in
  let worker () =
    Sync.with_lock m (fun () ->
        incr in_critical;
        max_seen := Int.max !max_seen !in_critical;
        Process.sleep e (Clock.ms 1);
        decr in_critical)
  in
  for i = 1 to 5 do
    ignore (Process.spawn e ~name:("w" ^ string_of_int i) worker)
  done;
  Engine.run e;
  Alcotest.(check int) "never two inside" 1 !max_seen;
  Alcotest.check_raises "released at end" (Invalid_argument "Sync.unlock: mutex not held")
    (fun () -> Sync.unlock m)

let test_mutex_unlock_unheld () =
  let e = Engine.create () in
  let m = Sync.mutex e in
  Alcotest.check_raises "unlock unheld" (Invalid_argument "Sync.unlock: mutex not held")
    (fun () -> Sync.unlock m)

let test_condition_signal () =
  let e = Engine.create () in
  let m = Sync.mutex e in
  let c = Sync.condition e in
  let ready = ref false and observed = ref false in
  ignore
    (Process.spawn e ~name:"waiter" (fun () ->
         Sync.lock m;
         while not !ready do
           Sync.wait c m
         done;
         observed := true;
         Sync.unlock m));
  ignore
    (Process.spawn e ~name:"signaller" (fun () ->
         Process.sleep e (Clock.ms 2);
         Sync.lock m;
         ready := true;
         Sync.signal c;
         Sync.unlock m));
  Engine.run e;
  Alcotest.(check bool) "waiter saw the change" true !observed

let test_keyed_lock_parallel_keys () =
  let e = Engine.create () in
  let kl = Sync.keyed_lock e in
  let finished_at = ref [] in
  let worker key =
    ignore
      (Process.spawn e ~name:(string_of_int key) (fun () ->
           Sync.with_key kl key (fun () ->
               Process.sleep e (Clock.ms 10);
               finished_at := (key, Engine.now e) :: !finished_at)))
  in
  worker 1;
  worker 2;
  (* different keys overlap: both should finish at 10ms *)
  Engine.run e;
  List.iter
    (fun (_, t) -> Alcotest.(check int) "parallel finish" (Clock.ms 10) t)
    !finished_at

let test_keyed_lock_serializes_same_key () =
  let e = Engine.create () in
  let kl = Sync.keyed_lock e in
  let finished_at = ref [] in
  for _ = 1 to 2 do
    ignore
      (Process.spawn e ~name:"w" (fun () ->
           Sync.with_key kl 42 (fun () ->
               Process.sleep e (Clock.ms 10);
               finished_at := Engine.now e :: !finished_at)))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "serialized finishes" [ Clock.ms 20; Clock.ms 10 ] !finished_at

let test_keyed_lock_end_unheld () =
  let e = Engine.create () in
  let kl = Sync.keyed_lock e in
  Alcotest.check_raises "end unheld" (Invalid_argument "Sync.end_request: key not held")
    (fun () -> Sync.end_request kl 3)

let tests =
  [
    Alcotest.test_case "process runs" `Quick test_process_runs;
    Alcotest.test_case "process sleep" `Quick test_process_sleep_advances_clock;
    Alcotest.test_case "process interleaving" `Quick test_process_interleaving;
    Alcotest.test_case "kill before start" `Quick test_process_kill_before_start;
    Alcotest.test_case "kill while blocked" `Quick test_process_kill_while_blocked;
    Alcotest.test_case "exception recorded" `Quick test_process_exception_recorded;
    Alcotest.test_case "double resume ignored" `Quick test_process_double_resume_ignored;
    Alcotest.test_case "port queueing" `Quick test_port_queueing;
    Alcotest.test_case "port capacity" `Quick test_port_capacity;
    Alcotest.test_case "port close/reopen" `Quick test_port_closed;
    Alcotest.test_case "receive immediate" `Quick test_port_receive_immediate;
    Alcotest.test_case "receive blocks" `Quick test_port_receive_blocks_until_enqueue;
    Alcotest.test_case "port priority" `Quick test_port_priority_order;
    Alcotest.test_case "waiters FIFO" `Quick test_port_two_waiters_fifo;
    Alcotest.test_case "timeout then late message" `Quick test_port_timeout_then_late_message_stays;
    Alcotest.test_case "try_receive" `Quick test_try_receive;
    Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
    Alcotest.test_case "mutex unlock unheld" `Quick test_mutex_unlock_unheld;
    Alcotest.test_case "condition signal" `Quick test_condition_signal;
    Alcotest.test_case "keyed lock parallel keys" `Quick test_keyed_lock_parallel_keys;
    Alcotest.test_case "keyed lock same key" `Quick test_keyed_lock_serializes_same_key;
    Alcotest.test_case "keyed lock end unheld" `Quick test_keyed_lock_end_unheld;
  ]
