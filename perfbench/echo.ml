(* rpc_echo: the guardian -> port -> guardian round trip, closed loop.

   16 client guardians on nodes 0 and 1 each make [calls] Rpc.calls, one
   at a time, to one of 2 echo guardians on nodes 2 and 3, over Link.lan.
   A call carries an int and a string of at most 32 bytes, so every
   message is one fragment.  No crashes, perfect disks.  Every reply must
   echo its request. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link
module Rng = Dcp_rng.Rng

let clients = 16
let calls = 1000

let port_type =
  [ Rpc.request_signature "echo" [ Vtype.Tint; Vtype.Tstr ]
      ~replies:[ Vtype.reply "echoed" [ Vtype.Tint; Vtype.Tstr ] ] ]

(* The echo guardian replies with a bare Runtime.send, so each of its
   sends is a [core.send] span in the traced run. *)
let echo_def : Runtime.def =
  {
    Runtime.def_name = "bench_echo";
    provides = [ (port_type, 64) ];
    init =
      (fun ctx _ ->
        let port = Runtime.port ctx 0 in
        let rec loop () =
          (match Runtime.receive ctx [ port ] with
          | `Timeout -> ()
          | `Msg (_, msg) -> (
              Harness.sample (fun () -> (Dcp_core.Port.name port, msg));
              match (msg.Message.command, msg.Message.args, msg.Message.reply_to) with
              | "echo", [ Value.Int id; Value.Int n; Value.Str s ], Some reply ->
                  Spans.enter "core.send";
                  Runtime.send ctx ~to_:reply "echoed" [ Value.int id; Value.int n; Value.str s ];
                  Spans.leave ()
              | _ -> ()));
          loop ()
        in
        loop ());
    recover = None;
  }

(* Payloads come from the seed: a string of 0..32 printable bytes. *)
let payload rng =
  String.init (Rng.int rng 33) (fun _ -> Char.chr (33 + Rng.int rng 94))

let setup ~seed ~rep () =
  let world =
    Runtime.create_world ~seed ~topology:(Topology.full_mesh ~n:4 Link.lan) ()
  in
  Runtime.register_def world echo_def;
  let servers =
    Array.init 2 (fun i ->
        List.hd (Runtime.guardian_ports (Runtime.create_guardian world ~at:(2 + i)
                                           ~def_name:"bench_echo" ~args:[])))
  in
  let ops = Harness.make_ops ~rep (clients * calls) in
  (* Requests and the replies they got, compared after the run. *)
  let sent = Array.make (clients * calls) (0, "") in
  let got = Array.make (clients * calls) (-1, "") in
  let client_def : Runtime.def =
    {
      Runtime.def_name = "bench_echo_client";
      provides = [];
      init =
        (fun ctx args ->
          let c = match args with [ Value.Int c ] -> c | _ -> invalid_arg "echo client" in
          let rng = Rng.create ~seed:((seed * 7919) + c) in
          let server = servers.(c mod 2) in
          for k = 0 to calls - 1 do
            let i = (c * calls) + k in
            let n = Rng.int rng 1_000_000 and s = payload rng in
            sent.(i) <- (n, s);
            Harness.issue ops i ~at:(Runtime.ctx_now ctx);
            (* Pinned request id: generated ids come from a process-global
               counter and would change the message bytes between runs. *)
            let outcome =
              match
                Harness.call ctx ~to_:server ~timeout:(Clock.ms 20) ~attempts:5
                  ~request_id:(1_000_000 + i) "echo" [ Value.int n; Value.str s ]
              with
              | Rpc.Reply ("echoed", [ Value.Int n'; Value.Str s' ]) ->
                  got.(i) <- (n', s');
                  `Ok
              | Rpc.Reply (cmd, _) -> `Wrong ("unexpected reply " ^ cmd)
              | Rpc.Failure_msg _ | Rpc.Timeout -> `Failed
            in
            Harness.complete ops i ~at:(Runtime.ctx_now ctx) outcome
          done);
      recover = None;
    }
  in
  Runtime.register_def world client_def;
  for c = 0 to clients - 1 do
    ignore
      (Runtime.create_guardian world ~at:(c mod 2) ~def_name:"bench_echo_client"
         ~args:[ Value.int c ])
  done;
  {
    Harness.world;
    ops;
    slice = Clock.ms 10;
    limit = Clock.s 600;
    settle = (fun () -> Float.nan);
    check =
      (fun () ->
        let rec scan i =
          if i = Array.length sent then Harness.oracles [ Harness.Oracle.stable_durability ] world
          else if got.(i) <> sent.(i) then
            Error (Printf.sprintf "op %d: the reply does not echo its request" i)
          else scan (i + 1)
        in
        scan 0);
    extra = (fun () -> []);
  }

let run ~seed ~rep = Harness.measure (setup ~seed ~rep)
