(* Access control: the generic ACL structure, the flight guardian's
   capability-protected admin port, and the §2.3 other-airline policy. *)

open Dcp_wire
module Acl = Dcp_core.Acl
module Runtime = Dcp_core.Runtime
module Rpc = Dcp_primitives.Rpc
module Flight = Dcp_airline.Flight
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

(* ---- the ACL data structure ---- *)

let test_acl_direct_grants () =
  let acl = Acl.create () in
  Acl.grant acl ~principal:"alice" ~permission:"list";
  Alcotest.(check bool) "granted" true (Acl.check acl ~principal:"alice" ~permission:"list");
  Alcotest.(check bool) "not granted" false (Acl.check acl ~principal:"bob" ~permission:"list");
  Alcotest.(check bool) "other permission" false
    (Acl.check acl ~principal:"alice" ~permission:"archive");
  Acl.revoke acl ~principal:"alice" ~permission:"list";
  Alcotest.(check bool) "revoked" false (Acl.check acl ~principal:"alice" ~permission:"list")

let test_acl_public () =
  let acl = Acl.create () in
  Acl.allow_all acl ~permission:"reserve";
  Alcotest.(check bool) "anyone" true (Acl.check acl ~principal:"whoever" ~permission:"reserve");
  Acl.disallow_all acl ~permission:"reserve";
  Alcotest.(check bool) "closed again" false
    (Acl.check acl ~principal:"whoever" ~permission:"reserve")

let test_acl_groups () =
  let acl = Acl.create () in
  Acl.add_to_group acl ~principal:"carol" ~group:"managers";
  Acl.grant_group acl ~group:"managers" ~permission:"list";
  Alcotest.(check bool) "via group" true (Acl.check acl ~principal:"carol" ~permission:"list");
  Acl.remove_from_group acl ~principal:"carol" ~group:"managers";
  Alcotest.(check bool) "left group" false (Acl.check acl ~principal:"carol" ~permission:"list");
  Acl.add_to_group acl ~principal:"dave" ~group:"managers";
  Acl.revoke_group acl ~group:"managers" ~permission:"list";
  Alcotest.(check bool) "group grant revoked" false
    (Acl.check acl ~principal:"dave" ~permission:"list")

let test_acl_permissions_of () =
  let acl = Acl.create () in
  Acl.grant acl ~principal:"eve" ~permission:"b";
  Acl.add_to_group acl ~principal:"eve" ~group:"g";
  Acl.grant_group acl ~group:"g" ~permission:"c";
  Acl.allow_all acl ~permission:"a";
  Alcotest.(check (list string)) "all three sorted" [ "a"; "b"; "c" ]
    (Acl.permissions_of acl ~principal:"eve")

let test_acl_principals_with () =
  let acl = Acl.create () in
  Acl.grant acl ~principal:"zoe" ~permission:"audit";
  Acl.add_to_group acl ~principal:"ann" ~group:"aud";
  Acl.grant_group acl ~group:"aud" ~permission:"audit";
  Alcotest.(check (list string)) "direct + via group" [ "ann"; "zoe" ]
    (Acl.principals_with acl ~permission:"audit")

let prop_acl_grant_check =
  QCheck2.Test.make ~name:"grant implies check; revoke removes it" ~count:300
    QCheck2.Gen.(pair (string_size (int_range 1 8)) (string_size (int_range 1 8)))
    (fun (principal, permission) ->
      let acl = Acl.create () in
      Acl.grant acl ~principal ~permission;
      let held = Acl.check acl ~principal ~permission in
      Acl.revoke acl ~principal ~permission;
      held && not (Acl.check acl ~principal ~permission))

(* ---- the admin port as a capability ---- *)

let make_world () =
  Runtime.create_world ~seed:61 ~topology:(Topology.full_mesh ~n:2 Link.perfect) ()

let fresh_driver_name =
  let i = ref 0 in
  fun () ->
    incr i;
    Printf.sprintf "acl_driver_%d" !i

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

let test_admin_stats_and_archive () =
  let world = make_world () in
  let request, admin =
    Flight.create_with_admin world ~at:0 ~flight:9 ~capacity:5 ~service_time:(Clock.us 10) ()
  in
  let stats = ref None and archived = ref None and after = ref None in
  driver world ~at:1 (fun ctx ->
      ignore (reserve ctx request ~passenger:"a" ~date:1);
      ignore (reserve ctx request ~passenger:"b" ~date:1);
      ignore (reserve ctx request ~passenger:"c" ~date:2);
      (match Rpc.call ctx ~to_:admin ~timeout:(Clock.ms 500) "stats" [] with
      | Rpc.Reply ("stats", [ record ]) ->
          stats :=
            Some
              ( Value.get_int (Value.field record "dates"),
                Value.get_int (Value.field record "reserved") )
      | _ -> ());
      (match Rpc.call ctx ~to_:admin ~timeout:(Clock.ms 500) "archive_date" [ Value.int 1 ] with
      | Rpc.Reply ("archived", [ Value.Int n ]) -> archived := Some n
      | _ -> ());
      match Rpc.call ctx ~to_:admin ~timeout:(Clock.ms 500) "stats" [] with
      | Rpc.Reply ("stats", [ record ]) ->
          after := Some (Value.get_int (Value.field record "reserved"))
      | _ -> ());
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check (option (pair int int))) "stats before" (Some (2, 3)) !stats;
  Alcotest.(check (option int)) "archived two seats" (Some 2) !archived;
  Alcotest.(check (option int)) "one seat left" (Some 1) !after

let test_admin_commands_rejected_on_request_port () =
  (* The reservation port's type does not include archive_date: the system
     discards it with a failure message (type checking, §3.2). *)
  let world = make_world () in
  let request, _admin =
    Flight.create_with_admin world ~at:0 ~flight:9 ~capacity:5 ~service_time:(Clock.us 10) ()
  in
  let got = ref "" in
  driver world ~at:1 (fun ctx ->
      match Rpc.call ctx ~to_:request ~timeout:(Clock.ms 500) "archive_date" [ Value.int 1 ] with
      | Rpc.Reply (command, _) -> got := command
      | Rpc.Failure_msg _ -> got := "failure"
      | Rpc.Timeout -> got := "timeout");
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check string) "rejected by port type" "failure" !got

let test_admin_port_unguessable () =
  (* Forging an admin port name with a wrong uid gets failure, not access. *)
  let world = make_world () in
  let _request, admin =
    Flight.create_with_admin world ~at:0 ~flight:9 ~capacity:5 ~service_time:(Clock.us 10) ()
  in
  let got = ref "" in
  driver world ~at:1 (fun ctx ->
      let forged = { admin with Port_name.uid = admin.Port_name.uid + 1000 } in
      match Rpc.call ctx ~to_:forged ~timeout:(Clock.ms 500) "stats" [] with
      | Rpc.Reply (command, _) -> got := command
      | Rpc.Failure_msg _ -> got := "failure"
      | Rpc.Timeout -> got := "timeout");
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check string) "forged name bounces" "failure" !got

(* ---- the other-airline policy ---- *)

let test_partner_cannot_take_last_seat () =
  let world = make_world () in
  let request, _ =
    Flight.create_with_admin world ~at:0 ~flight:9 ~capacity:2 ~partner_floor:1
      ~service_time:(Clock.us 10) ()
  in
  let log = ref [] in
  driver world ~at:1 (fun ctx ->
      let note outcome = log := outcome :: !log in
      note (reserve ctx request ~passenger:"partner:klm" ~date:1);  (* 1 of 2: fine *)
      note (reserve ctx request ~passenger:"partner:sas" ~date:1);  (* last seat: refused *)
      note (reserve ctx request ~passenger:"own-customer" ~date:1);  (* own airline: fine *)
      note (reserve ctx request ~passenger:"partner:klm" ~date:1)  (* idempotent still *));
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check (list string))
    "partner floor enforced"
    [ "ok"; "full"; "ok"; "pre_reserved" ]
    (List.rev !log)

let tests =
  [
    Alcotest.test_case "direct grants" `Quick test_acl_direct_grants;
    Alcotest.test_case "public permissions" `Quick test_acl_public;
    Alcotest.test_case "groups" `Quick test_acl_groups;
    Alcotest.test_case "permissions_of" `Quick test_acl_permissions_of;
    Alcotest.test_case "principals_with" `Quick test_acl_principals_with;
    QCheck_alcotest.to_alcotest prop_acl_grant_check;
    Alcotest.test_case "admin stats and archive" `Quick test_admin_stats_and_archive;
    Alcotest.test_case "admin commands rejected on request port" `Quick
      test_admin_commands_rejected_on_request_port;
    Alcotest.test_case "admin port unguessable" `Quick test_admin_port_unguessable;
    Alcotest.test_case "partner cannot take the last seat" `Quick
      test_partner_cannot_take_last_seat;
  ]
