(* The office automation system: documents (transmittable abstract type),
   mailboxes (two-capability guardians), the printer device, the
   directory name service, and crash recovery of mail. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Rpc = Dcp_primitives.Rpc
module Document = Dcp_office.Document
module Mailbox = Dcp_office.Mailbox
module Printer = Dcp_office.Printer
module Directory = Dcp_office.Directory
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let make_world ?(n = 3) () =
  Runtime.create_world ~seed:71 ~topology:(Topology.full_mesh ~n Link.perfect) ()

let fresh_driver_name =
  let i = ref 0 in
  fun () ->
    incr i;
    Printf.sprintf "office_driver_%d" !i

let driver world ~at body =
  let name = fresh_driver_name () in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

(* ---- documents ---- *)

let test_document_representations_agree () =
  let flat = Document.create ~title:"memo" ~author:"liskov" ~body:"line one\nline two" in
  let listy = Document.create_lines ~title:"memo" ~author:"liskov" ~lines:[ "line one"; "line two" ] in
  Alcotest.(check bool) "equal across reps" true (Document.equal flat listy);
  Alcotest.(check int) "word count" 4 (Document.word_count flat);
  Alcotest.(check (list string)) "lines of flat" [ "line one"; "line two" ] (Document.lines flat);
  Alcotest.(check string) "body of lines" "line one\nline two" (Document.body listy)

let test_document_append_bumps_revision () =
  let d = Document.create ~title:"t" ~author:"a" ~body:"start" in
  let d2 = Document.append d "more" in
  Alcotest.(check int) "revision" 2 (Document.revision d2);
  Alcotest.(check string) "body grew" "start\nmore" (Document.body d2);
  Alcotest.(check bool) "flat stays flat" true (Document.is_flat d2)

let test_document_cross_rep_transfer () =
  let d = Document.create ~title:"spec" ~author:"clu" ~body:"a\nb\nc" in
  let wire = Codec.encode_exn (Document.to_value d) in
  let received = Document.of_value_lines (Codec.decode_exn wire) in
  Alcotest.(check bool) "faithful" true (Document.equal d received);
  Alcotest.(check bool) "line rep on the receiving node" true (not (Document.is_flat received))

let prop_document_roundtrip =
  QCheck2.Test.make ~name:"document transmit roundtrip" ~count:200
    QCheck2.Gen.(
      triple (string_size (int_range 0 20)) (string_size (int_range 0 10))
        (list_size (int_range 0 10) (string_size (int_range 0 15))))
    (fun (title, author, raw_lines) ->
      (* newline-free lines, as an editor would store them *)
      let clean = List.map (String.map (fun c -> if c = '\n' then '_' else c)) raw_lines in
      let d = Document.create_lines ~title ~author ~lines:clean in
      let wire = Codec.encode_exn (Document.to_value d) in
      let back = Document.of_value_flat (Codec.decode_exn wire) in
      (* empty lines at the end collapse in the flat body; compare bodies *)
      String.equal (Document.body d) (Document.body back))

(* ---- mailbox ---- *)

let memo n = Document.create ~title:(Printf.sprintf "memo %d" n) ~author:"boss" ~body:"do it"

let send_mail ctx ~delivery doc =
  match
    Rpc.call ctx ~to_:delivery ~timeout:(Clock.ms 500) ~attempts:3 "deliver"
      [ Document.to_value doc ]
  with
  | Rpc.Reply (command, _) -> command
  | Rpc.Failure_msg _ -> "failure"
  | Rpc.Timeout -> "timeout"

let test_mailbox_deliver_and_fetch () =
  let world = make_world () in
  let delivery, owner = Mailbox.create world ~at:0 ~owner:"ann" () in
  let outcome = ref "" and titles = ref [] and fetched = ref None in
  driver world ~at:1 (fun ctx ->
      outcome := send_mail ctx ~delivery (memo 1);
      ignore (send_mail ctx ~delivery (memo 2));
      (match Rpc.call ctx ~to_:owner ~timeout:(Clock.ms 500) "list_mail" [] with
      | Rpc.Reply ("headers", [ Value.Listv headers ]) ->
          titles :=
            List.map
              (fun h -> match h with Value.Tuple [ _; Value.Str t; _ ] -> t | _ -> "?")
              headers
      | _ -> ());
      match Rpc.call ctx ~to_:owner ~timeout:(Clock.ms 500) "fetch" [ Value.int 0 ] with
      | Rpc.Reply ("mail", [ doc_value ]) ->
          fetched := Some (Document.title (Document.of_value_flat doc_value))
      | _ -> ());
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check string) "delivered" "delivered" !outcome;
  Alcotest.(check (list string)) "headers" [ "memo 1"; "memo 2" ] !titles;
  Alcotest.(check (option string)) "fetched" (Some "memo 1") !fetched

let test_mailbox_capacity () =
  let world = make_world () in
  let delivery, _ = Mailbox.create world ~at:0 ~owner:"bea" ~capacity:2 () in
  let outcomes = ref [] in
  driver world ~at:1 (fun ctx ->
      outcomes := List.map (fun n -> send_mail ctx ~delivery (memo n)) [ 1; 2; 3 ]);
  Runtime.run_for world (Clock.s 3);
  Alcotest.(check (list string))
    "third bounces"
    [ "delivered"; "delivered"; "mailbox_full" ]
    !outcomes

let test_mailbox_mail_survives_crash () =
  let world = make_world () in
  let delivery, owner = Mailbox.create world ~at:0 ~owner:"cal" () in
  driver world ~at:1 (fun ctx -> ignore (send_mail ctx ~delivery (memo 7)));
  Runtime.run_for world (Clock.s 1);
  Runtime.crash_node world 0;
  Runtime.restart_node world 0;
  let titles = ref [] in
  driver world ~at:1 (fun ctx ->
      match Rpc.call ctx ~to_:owner ~timeout:(Clock.ms 500) "list_mail" [] with
      | Rpc.Reply ("headers", [ Value.Listv headers ]) ->
          titles :=
            List.map
              (fun h -> match h with Value.Tuple [ _; Value.Str t; _ ] -> t | _ -> "?")
              headers
      | _ -> ());
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check (list string)) "mail survived the crash" [ "memo 7" ] !titles

let test_mailbox_discard () =
  let world = make_world () in
  let delivery, owner = Mailbox.create world ~at:0 ~owner:"dot" () in
  let after = ref (-1) in
  driver world ~at:1 (fun ctx ->
      ignore (send_mail ctx ~delivery (memo 1));
      (match Rpc.call ctx ~to_:owner ~timeout:(Clock.ms 500) "discard" [ Value.int 0 ] with
      | Rpc.Reply ("discarded", _) -> ()
      | _ -> Alcotest.fail "discard failed");
      (match Rpc.call ctx ~to_:owner ~timeout:(Clock.ms 500) "discard" [ Value.int 0 ] with
      | Rpc.Reply ("no_such_mail", _) -> ()
      | _ -> Alcotest.fail "double discard should miss");
      match Rpc.call ctx ~to_:owner ~timeout:(Clock.ms 500) "list_mail" [] with
      | Rpc.Reply ("headers", [ Value.Listv headers ]) -> after := List.length headers
      | _ -> ());
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check int) "empty after discard" 0 !after

(* ---- printer ---- *)

let test_printer_prints_in_order () =
  let world = make_world () in
  let printer = Printer.create world ~at:0 ~line_time:(Clock.ms 10) () in
  let printed = ref [] and queued = ref [] in
  driver world ~at:1 (fun ctx ->
      let notify = Runtime.new_port ctx ~capacity:16 [ Vtype.wildcard ] in
      List.iter
        (fun n ->
          let doc =
            Document.create ~title:(Printf.sprintf "doc%d" n) ~author:"a" ~body:"x\ny"
          in
          match
            Rpc.call ctx ~to_:printer ~timeout:(Clock.ms 500) "print"
              [
                Document.to_value doc;
                Value.option (Some (Value.port (Dcp_core.Port.name notify)));
              ]
          with
          | Rpc.Reply ("queued", [ Value.Int pos ]) -> queued := pos :: !queued
          | _ -> ())
        [ 1; 2; 3 ];
      let rec collect () =
        match Runtime.receive ctx ~timeout:(Clock.s 2) [ notify ] with
        | `Msg (_, { Dcp_core.Message.command = "printed"; args = [ Value.Str t ]; _ }) ->
            printed := t :: !printed;
            if List.length !printed < 3 then collect ()
        | `Msg _ -> collect ()
        | `Timeout -> ()
      in
      collect ());
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check (list string)) "printed in order" [ "doc1"; "doc2"; "doc3" ] (List.rev !printed)

let test_printer_status_and_serialization () =
  let world = make_world () in
  let printer = Printer.create world ~at:0 ~line_time:(Clock.ms 50) () in
  let busy_status = ref "" in
  driver world ~at:1 (fun ctx ->
      let doc = Document.create ~title:"long" ~author:"a" ~body:(String.concat "\n" (List.init 10 string_of_int)) in
      (match
         Rpc.call ctx ~to_:printer ~timeout:(Clock.ms 500) "print"
           [ Document.to_value doc; Value.option None ]
       with
      | Rpc.Reply ("queued", _) -> ()
      | _ -> Alcotest.fail "print not queued");
      Runtime.sleep ctx (Clock.ms 100);
      match Rpc.call ctx ~to_:printer ~timeout:(Clock.ms 500) "status" [] with
      | Rpc.Reply ("status", [ Value.Str current; _; _ ]) -> busy_status := current
      | _ -> ());
  Runtime.run_for world (Clock.s 5);
  Alcotest.(check string) "device busy with the job" "long" !busy_status

let test_printer_queue_limit () =
  let world = make_world () in
  let printer = Printer.create world ~at:0 ~line_time:(Clock.s 1) ~queue_limit:2 () in
  let rejected = ref 0 in
  driver world ~at:1 (fun ctx ->
      for n = 1 to 5 do
        let doc = Document.create ~title:(string_of_int n) ~author:"a" ~body:"b" in
        match
          Rpc.call ctx ~to_:printer ~timeout:(Clock.ms 500) "print"
            [ Document.to_value doc; Value.option None ]
        with
        | Rpc.Reply ("rejected", _) -> incr rejected
        | _ -> ()
      done);
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check bool)
    (Printf.sprintf "some jobs rejected (%d)" !rejected)
    true (!rejected >= 2)

(* ---- directory + end-to-end office flow ---- *)

let test_office_end_to_end () =
  let world = make_world () in
  let directory = Directory.create world ~at:2 () in
  let ann_delivery, ann_owner = Mailbox.create world ~at:0 ~owner:"ann" () in
  let _bob_delivery, _ = Mailbox.create world ~at:1 ~owner:"bob" () in
  let got = ref None in
  driver world ~at:1 (fun ctx ->
      (* bob's node registers ann's mailbox? No: each owner registers its
         own; here the driver stands in for both owners' setup. *)
      Alcotest.(check bool) "register" true
        (Directory.register_user ctx ~directory ~user:"ann" ~port:ann_delivery);
      match Directory.lookup ctx ~directory ~user:"ann" with
      | None -> Alcotest.fail "lookup failed"
      | Some port ->
          let doc = Document.create ~title:"minutes" ~author:"bob" ~body:"..." in
          (match
             Rpc.call ctx ~to_:port ~timeout:(Clock.ms 500) "deliver" [ Document.to_value doc ]
           with
          | Rpc.Reply ("delivered", _) -> ()
          | _ -> Alcotest.fail "delivery failed");
          ());
  Runtime.run_for world (Clock.s 2);
  driver world ~at:0 (fun ctx ->
      match Rpc.call ctx ~to_:ann_owner ~timeout:(Clock.ms 500) "fetch" [ Value.int 0 ] with
      | Rpc.Reply ("mail", [ doc_value ]) ->
          got := Some (Document.author (Document.of_value_flat doc_value))
      | _ -> ());
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check (option string)) "mail from bob arrived via directory" (Some "bob") !got

let test_directory_unknown_user () =
  let world = make_world () in
  let directory = Directory.create world ~at:2 () in
  let result = ref (Some (Port_name.make ~node:0 ~guardian:0 ~index:0 ~uid:0)) in
  driver world ~at:1 (fun ctx -> result := Directory.lookup ctx ~directory ~user:"ghost");
  Runtime.run_for world (Clock.s 2);
  Alcotest.(check bool) "unknown user" true (!result = None)

let tests =
  [
    Alcotest.test_case "document reps agree" `Quick test_document_representations_agree;
    Alcotest.test_case "document append/revision" `Quick test_document_append_bumps_revision;
    Alcotest.test_case "document cross-rep transfer" `Quick test_document_cross_rep_transfer;
    QCheck_alcotest.to_alcotest prop_document_roundtrip;
    Alcotest.test_case "mailbox deliver/fetch" `Quick test_mailbox_deliver_and_fetch;
    Alcotest.test_case "mailbox capacity" `Quick test_mailbox_capacity;
    Alcotest.test_case "mail survives crash" `Quick test_mailbox_mail_survives_crash;
    Alcotest.test_case "mailbox discard" `Quick test_mailbox_discard;
    Alcotest.test_case "printer prints in order" `Quick test_printer_prints_in_order;
    Alcotest.test_case "printer status while busy" `Quick test_printer_status_and_serialization;
    Alcotest.test_case "printer queue limit" `Quick test_printer_queue_limit;
    Alcotest.test_case "office end to end" `Quick test_office_end_to_end;
    Alcotest.test_case "directory unknown user" `Quick test_directory_unknown_user;
  ]
