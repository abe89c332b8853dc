open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Clock = Dcp_sim.Clock

let request_response ctx ~to_ ?(timeout = Clock.s 1) command args =
  let reply_port = Runtime.new_port ctx [ Vtype.wildcard ] in
  Runtime.send ctx ~to_ ~reply_to:(Port.name reply_port) command args;
  let outcome =
    match Runtime.receive ctx ~timeout [ reply_port ] with
    | `Timeout -> `Timeout
    | `Msg (_, msg) -> `Reply msg
  in
  Runtime.remove_port ctx reply_port;
  outcome

let stream_then_confirm ctx ~to_ ~items ~confirm ?(timeout = Clock.s 1) () =
  List.iter (fun (command, args) -> Runtime.send ctx ~to_ command args) items;
  let reply_port = Runtime.new_port ctx [ Vtype.wildcard ] in
  Runtime.send ctx ~to_ ~reply_to:(Port.name reply_port) confirm [];
  let outcome =
    match Runtime.receive ctx ~timeout [ reply_port ] with
    | `Timeout -> `Timeout
    | `Msg (_, msg) -> `Confirmed msg
  in
  Runtime.remove_port ctx reply_port;
  outcome

let delegate_as ctx ~to_ ~command ~args msg =
  Runtime.send ctx ~to_ ?reply_to:msg.Message.reply_to command args
