(* dcp_cli — scenario driver for the guardian runtime.

   Subcommands:
     airline   run the Figure-2 airline cluster with tunable parameters
     bank      run the transfer-saga bank and audit conservation
     office    run the office automation demo (mailbox + printer)
     replica   run the replicated-register demo (LWW + anti-entropy)
     trace     run a small scenario and dump the runtime trace

   Examples:
     dune exec bin/dcp_cli.exe -- airline --regions 4 --duration 30 --crash 10
     dune exec bin/dcp_cli.exe -- airline --org one_at_a_time --centralized
     dune exec bin/dcp_cli.exe -- bank --transfers 20 --crash-coordinator
     dune exec bin/dcp_cli.exe -- office --memos 8
     dune exec bin/dcp_cli.exe -- replica --nodes 5 --writes 20
     dune exec bin/dcp_cli.exe -- trace *)

open Cmdliner
module Runtime = Dcp_core.Runtime
module Cluster = Dcp_airline.Cluster
module Workload = Dcp_airline.Workload
module Types = Dcp_airline.Types
module Clock = Dcp_sim.Clock
module Engine = Dcp_sim.Engine

(* ---- airline ---- *)

let run_airline regions flights capacity org centralized clerks duration crash_at seed =
  let organization =
    match Types.organization_of_string org with
    | Some o -> o
    | None -> failwith (Printf.sprintf "unknown organization %S" org)
  in
  let params =
    {
      Cluster.default_params with
      regions;
      flights_per_region = flights;
      capacity;
      organization;
      centralized;
      clerks_per_region = clerks;
      seed;
      clerk = { Workload.default_config with transactions = 0 };
    }
  in
  let cluster = Cluster.build params in
  let world = cluster.Cluster.world in
  (match crash_at with
  | None -> ()
  | Some at ->
      let engine = Runtime.engine world in
      ignore
        (Engine.schedule engine ~at:(Clock.s at) (fun () ->
             Printf.printf "[%ds] crashing node 0\n%!" at;
             Runtime.crash_node world 0));
      ignore
        (Engine.schedule engine ~at:(Clock.s (at + 5)) (fun () ->
             Printf.printf "[%ds] restarting node 0\n%!" (at + 5);
             Runtime.restart_node world 0)));
  let report = Cluster.run cluster ~duration:(Clock.s duration) in
  Format.printf "%a@." Cluster.pp_report report;
  `Ok ()

let airline_cmd =
  let regions = Arg.(value & opt int 4 & info [ "regions" ] ~doc:"Number of regions/nodes.") in
  let flights =
    Arg.(value & opt int 4 & info [ "flights" ] ~doc:"Flights per region.")
  in
  let capacity = Arg.(value & opt int 100 & info [ "capacity" ] ~doc:"Seats per flight-date.") in
  let org =
    Arg.(
      value
      & opt string "monitor"
      & info [ "org" ] ~doc:"Flight guardian organization: one_at_a_time, serializer, monitor.")
  in
  let centralized =
    Arg.(value & flag & info [ "centralized" ] ~doc:"Put every regional manager on node 0.")
  in
  let clerks = Arg.(value & opt int 2 & info [ "clerks" ] ~doc:"Clerks per region.") in
  let duration =
    Arg.(value & opt int 30 & info [ "duration" ] ~doc:"Virtual seconds to simulate.")
  in
  let crash_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash" ] ~doc:"Crash node 0 at this virtual second (restarts 5s later).")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "airline" ~doc:"Run the Figure-2 distributed airline")
    Term.(
      ret
        (const run_airline $ regions $ flights $ capacity $ org $ centralized $ clerks
       $ duration $ crash_at $ seed))

(* ---- bank ---- *)

let run_bank transfers crash_coordinator seed =
  let open Dcp_wire in
  let topology = Dcp_net.Topology.full_mesh ~n:4 Dcp_net.Link.lan in
  let world = Runtime.create_world ~seed ~topology () in
  let accounts prefix = List.init 4 (fun i -> (Printf.sprintf "%s%d" prefix i, 1000)) in
  let b0 = Dcp_bank.Branch.create world ~at:0 ~accounts:(accounts "a") () in
  let b1 = Dcp_bank.Branch.create world ~at:1 ~accounts:(accounts "b") () in
  let coordinator = Dcp_bank.Transfer.create world ~at:2 ~branches:[ b0; b1 ] () in
  let teller : Runtime.def =
    {
      Runtime.def_name = "teller";
      provides = [];
      init =
        (fun ctx _ ->
          let ok = ref 0 and failed = ref 0 in
          for i = 1 to transfers do
            (match
               Dcp_primitives.Rpc.call ctx ~to_:coordinator ~timeout:(Clock.s 2) ~attempts:3
                 "transfer"
                 [
                   Value.int 0;
                   Value.str (Printf.sprintf "a%d" (i mod 4));
                   Value.int 1;
                   Value.str (Printf.sprintf "b%d" (i mod 4));
                   Value.int (10 * i);
                 ]
             with
            | Dcp_primitives.Rpc.Reply ("ok", _) -> incr ok
            | _ -> incr failed);
            Runtime.sleep ctx (Clock.ms 50)
          done;
          Runtime.sleep ctx (Clock.s 10);
          Printf.printf "transfers ok/other: %d/%d\n%!" !ok !failed;
          (match Dcp_bank.Audit.total_balance ctx ~branches:[ b0; b1 ] with
          | Ok total -> Printf.printf "audit total: %d (expected 8000)\n%!" total
          | Error reason -> Printf.printf "audit failed: %s\n%!" reason);
          Printf.printf "incomplete sagas: %d\n%!"
            (Dcp_bank.Transfer.incomplete_transfers world));
      recover = None;
    }
  in
  Runtime.register_def world teller;
  ignore (Runtime.create_guardian world ~at:3 ~def_name:"teller" ~args:[]);
  if crash_coordinator then begin
    let engine = Runtime.engine world in
    ignore
      (Engine.schedule engine ~at:(Clock.ms 300) (fun () ->
           Printf.printf "[0.3s] crashing coordinator\n%!";
           Runtime.crash_node world 2));
    ignore
      (Engine.schedule engine ~at:(Clock.ms 800) (fun () ->
           Printf.printf "[0.8s] restarting coordinator\n%!";
           Runtime.restart_node world 2))
  end;
  Runtime.run_for world (Clock.s 120);
  `Ok ()

let bank_cmd =
  let transfers = Arg.(value & opt int 12 & info [ "transfers" ] ~doc:"Transfers to issue.") in
  let crash =
    Arg.(value & flag & info [ "crash-coordinator" ] ~doc:"Crash the saga coordinator mid-run.")
  in
  let seed = Arg.(value & opt int 5 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "bank" ~doc:"Run the crash-recovering transfer bank")
    Term.(ret (const run_bank $ transfers $ crash $ seed))

(* ---- office ---- *)

let run_office memos seed =
  let open Dcp_wire in
  let world =
    Runtime.create_world ~seed
      ~topology:(Dcp_net.Topology.full_mesh ~n:2 Dcp_net.Link.lan)
      ()
  in
  let delivery, owner = Dcp_office.Mailbox.create world ~at:0 ~owner:"desk" () in
  let printer = Dcp_office.Printer.create world ~at:0 ~line_time:(Clock.ms 5) () in
  let clerk : Runtime.def =
    {
      Runtime.def_name = "office_clerk";
      provides = [];
      init =
        (fun ctx _ ->
          for i = 1 to memos do
            let doc =
              Dcp_office.Document.create
                ~title:(Printf.sprintf "memo %d" i)
                ~author:"clerk"
                ~body:(Printf.sprintf "body of memo %d
second line" i)
            in
            (match
               Dcp_primitives.Rpc.call ctx ~to_:delivery ~timeout:(Clock.ms 500) ~attempts:3
                 "deliver" [ Dcp_office.Document.to_value doc ]
             with
            | Dcp_primitives.Rpc.Reply ("delivered", _) -> ()
            | _ -> Printf.printf "memo %d bounced
%!" i);
            ignore
              (Dcp_primitives.Rpc.call ctx ~to_:printer ~timeout:(Clock.ms 500) "print"
                 [ Dcp_office.Document.to_value doc; Value.option None ])
          done;
          Runtime.sleep ctx (Clock.s 2);
          (match
             Dcp_primitives.Rpc.call ctx ~to_:owner ~timeout:(Clock.ms 500) "list_mail" []
           with
          | Dcp_primitives.Rpc.Reply ("headers", [ Value.Listv headers ]) ->
              Printf.printf "mailbox holds %d memo(s)
%!" (List.length headers)
          | _ -> ());
          match Dcp_primitives.Rpc.call ctx ~to_:printer ~timeout:(Clock.ms 500) "status" [] with
          | Dcp_primitives.Rpc.Reply ("status", [ Value.Str current; Value.Int q; Value.Int done_ ])
            ->
              Printf.printf "printer: %s, queue=%d, printed=%d
%!" current q done_
          | _ -> ());
      recover = None;
    }
  in
  Runtime.register_def world clerk;
  ignore (Runtime.create_guardian world ~at:1 ~def_name:"office_clerk" ~args:[]);
  Runtime.run_for world (Clock.s 30);
  `Ok ()

let office_cmd =
  let memos = Arg.(value & opt int 5 & info [ "memos" ] ~doc:"Memos to circulate.") in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "office" ~doc:"Run the office automation demo (mailbox + printer)")
    Term.(ret (const run_office $ memos $ seed))

(* ---- replica ---- *)

let run_replica nodes writes seed =
  let open Dcp_wire in
  let world =
    Runtime.create_world ~seed
      ~topology:(Dcp_net.Topology.full_mesh ~n:nodes Dcp_net.Link.lan)
      ()
  in
  let replicas =
    Dcp_primitives.Replica.create_group world
      ~nodes:(List.init nodes Fun.id)
      ~sync_every:(Clock.ms 200) ()
  in
  let writer : Runtime.def =
    {
      Runtime.def_name = "replica_writer";
      provides = [];
      init =
        (fun ctx _ ->
          Runtime.sleep ctx (Clock.ms 100);
          let rng = Dcp_rng.Rng.split (Runtime.world_rng world) in
          for i = 1 to writes do
            let replica = List.nth replicas (Dcp_rng.Rng.int rng nodes) in
            ignore
              (Dcp_primitives.Replica.write ctx ~replica ~key:"value" ~value:(Value.int i)
                 ~timeout:(Clock.s 1));
            Runtime.sleep ctx (Clock.ms 50)
          done;
          Runtime.sleep ctx (Clock.s 2);
          List.iteri
            (fun i replica ->
              match
                Dcp_primitives.Replica.read ctx ~replica ~key:"value" ~timeout:(Clock.s 1)
              with
              | Some v -> Printf.printf "replica %d: %s
%!" i (Value.to_string v)
              | None -> Printf.printf "replica %d: (no value)
%!" i)
            replicas);
      recover = None;
    }
  in
  Runtime.register_def world writer;
  ignore (Runtime.create_guardian world ~at:0 ~def_name:"replica_writer" ~args:[]);
  Runtime.run_for world (Clock.s 60);
  `Ok ()

let replica_cmd =
  let nodes = Arg.(value & opt int 3 & info [ "nodes" ] ~doc:"Replica count.") in
  let writes = Arg.(value & opt int 10 & info [ "writes" ] ~doc:"Writes to random replicas.") in
  let seed = Arg.(value & opt int 13 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "replica" ~doc:"Run the replicated-register demo (LWW + anti-entropy)")
    Term.(ret (const run_replica $ nodes $ writes $ seed))

(* ---- trace ---- *)

let run_trace () =
  let open Dcp_wire in
  let topology = Dcp_net.Topology.full_mesh ~n:2 Dcp_net.Link.lan in
  let world = Runtime.create_world ~seed:3 ~topology () in
  let flight =
    Dcp_airline.Flight.create world ~at:0 ~flight:1 ~capacity:2 ~service_time:(Clock.ms 1) ()
  in
  let probe : Runtime.def =
    {
      Runtime.def_name = "probe";
      provides = [];
      init =
        (fun ctx _ ->
          List.iter
            (fun passenger ->
              ignore
                (Dcp_primitives.Rpc.call ctx ~to_:flight ~timeout:(Clock.ms 500) "reserve"
                   [ Value.str passenger; Value.int 1 ]))
            [ "ada"; "bob"; "cyd" ]);
      recover = None;
    }
  in
  Runtime.register_def world probe;
  ignore (Runtime.create_guardian world ~at:1 ~def_name:"probe" ~args:[]);
  Runtime.run_for world (Clock.s 2);
  Format.printf "%a" Dcp_sim.Trace.pp (Runtime.trace world);
  Format.printf "@.-- metrics --@.%a" Dcp_sim.Metrics.pp_report (Runtime.metrics world);
  `Ok ()

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a tiny scenario and dump the runtime trace and metrics")
    Term.(ret (const run_trace $ const ()))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "dcp_cli" ~doc:"Scenario driver for the 1979 guardian runtime" in
  exit
    (Cmd.eval
       (Cmd.group ~default info [ airline_cmd; bank_cmd; office_cmd; replica_cmd; trace_cmd ]))
