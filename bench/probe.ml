(* Direct (non-bechamel) measurement of the in-simulator message hot path:
   one client does [pings] ping/pong round trips against an echo guardian in
   a world also hosting [idle] other guardians.  Per-message cost that grows
   with [idle] means an O(#guardians) scan survives on the delivery path.
   Minor words per round trip are exact for a fixed build, so they expose
   per-message allocation that the noisy ns figure hides.

   Run with:  dune exec bench/probe.exe -- <idle> <pings>  *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Topology = Dcp_net.Topology
module Clock = Dcp_sim.Clock

let () =
  let idle = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 0 in
  let pings = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 50_000 in
  let world =
    Runtime.create_world ~seed:7 ~topology:(Topology.full_mesh ~n:1 Dcp_net.Link.perfect) ()
  in
  let idle_def =
    { Runtime.def_name = "probe_idle"; provides = []; init = (fun _ _ -> ()); recover = None }
  in
  let echo_def =
    {
      Runtime.def_name = "probe_echo";
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
  let echo = Runtime.create_guardian world ~at:0 ~def_name:"probe_echo" ~args:[] in
  let echo_port = List.hd (Runtime.guardian_ports echo) in
  for _ = 1 to idle do
    ignore (Runtime.create_guardian world ~at:0 ~def_name:"probe_idle" ~args:[])
  done;
  let client_def =
    {
      Runtime.def_name = "probe_client";
      provides = [];
      init =
        (fun ctx _ ->
          let reply = Runtime.new_port ctx [ Vtype.wildcard ] in
          for _ = 1 to pings do
            Runtime.send ctx ~to_:echo_port ~reply_to:(Dcp_core.Port.name reply) "ping" [];
            match Runtime.receive ctx ~timeout:(Clock.s 1) [ reply ] with
            | `Msg _ | `Timeout -> ()
          done);
      recover = None;
    }
  in
  Runtime.register_def world client_def;
  Runtime.run world;
  let t0 = Sys.time () and w0 = Gc.minor_words () in
  ignore (Runtime.create_guardian world ~at:0 ~def_name:"probe_client" ~args:[]);
  Runtime.run world;
  let t1 = Sys.time () and w1 = Gc.minor_words () in
  let per_rt x = x /. float_of_int pings in
  Printf.printf "idle=%-6d pings=%d  %8.1f ns/round-trip  %7.1f minor words/round-trip\n" idle
    pings
    (per_rt ((t1 -. t0) *. 1e9))
    (per_rt (w1 -. w0))
