open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Clock = Dcp_sim.Clock

let request_signature name args ~replies =
  let prefix_reply r =
    { Vtype.reply_command = r.Vtype.reply_command; reply_args = Vtype.Tint :: r.Vtype.reply_args }
  in
  Vtype.signature name (Vtype.Tint :: args) ~replies:(List.map prefix_reply replies)

type response =
  | Reply of string * Value.t list
  | Failure_msg of string
  | Timeout

(* Request ids only need to be unique per client guardian; the world's
   mint makes them unique across the world, which also makes traces easier
   to read.  Ids travel inside message bytes as varints, so their size is
   on the wire too: minting them from the world, deterministically per
   shard, makes a run's bytes and timing a function of its own
   (seed, shards) alone — not of earlier worlds in the same process, nor
   of cross-shard interleaving. *)
let call ctx ~to_ ?(timeout = Clock.s 1) ?(attempts = 1) ?request_id command args =
  if attempts <= 0 then invalid_arg "Rpc.call: attempts must be positive";
  let id = match request_id with Some id -> id | None -> Runtime.ctx_mint_id ctx in
  (* Replies arrive as arbitrary commands prefixed with the request id, so
     the reply port is a wildcard port; the id match below provides the
     pairing the port type cannot. *)
  let any_port = Runtime.new_port ctx [ Vtype.wildcard ] in
  let finish outcome =
    Runtime.remove_port ctx any_port;
    outcome
  in
  let rec attempt remaining =
    Runtime.send ctx ~to_ ~reply_to:(Port.name any_port) command (Value.int id :: args);
    (* One deadline per attempt: stale replies consume the remaining budget
       instead of restarting it, so a flood of strays cannot stretch an
       attempt beyond [timeout]. *)
    let deadline = Clock.add (Runtime.ctx_now ctx) timeout in
    wait_until deadline remaining
  and wait_until deadline remaining =
    let budget = Clock.diff deadline (Runtime.ctx_now ctx) in
    if Clock.compare budget Clock.zero <= 0 then retry_or ~remaining Timeout
    else
      match Runtime.receive ctx ~timeout:budget [ any_port ] with
      | `Timeout -> retry_or ~remaining Timeout
      | `Msg (_, msg) -> (
          match (msg.Message.command, msg.Message.args) with
          | "failure", [ Value.Str reason ] -> retry_or ~remaining (Failure_msg reason)
          | reply_command, Value.Int rid :: rest when rid = id ->
              finish (Reply (reply_command, rest))
          | _ ->
              (* A stale response to a different request id: ignore it and
                 keep waiting within this attempt's remaining budget. *)
              wait_until deadline remaining)
  and retry_or ~remaining outcome =
    if remaining > 1 then attempt (remaining - 1) else finish outcome
  in
  attempt attempts

type dedup = {
  capacity : int;
  table : (int, string * Value.t list) Hashtbl.t;
  order : int Queue.t;  (** insertion order, oldest first — O(1) eviction *)
}

let dedup ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Rpc.dedup: capacity must be positive";
  { capacity; table = Hashtbl.create 64; order = Queue.create () }

let remember d id response =
  if not (Hashtbl.mem d.table id) then begin
    Hashtbl.replace d.table id response;
    Queue.add id d.order;
    if Queue.length d.order > d.capacity then
      match Queue.take_opt d.order with
      | Some oldest -> Hashtbl.remove d.table oldest
      | None -> ()
  end

let split_request msg =
  match (msg.Message.args, msg.Message.reply_to) with
  | Value.Int id :: rest, Some reply -> Some (id, rest, reply)
  | _, _ -> None

let serve ctx ~dedup:d msg ~f =
  match split_request msg with
  | None -> ()
  | Some (id, args, reply) ->
      let reply_command, reply_args =
        match Hashtbl.find_opt d.table id with
        | Some cached -> cached
        | None ->
            let response = f msg.Message.command args in
            remember d id response;
            response
      in
      Runtime.send ctx ~to_:reply reply_command (Value.int id :: reply_args)

let serve_always ctx msg ~f =
  match split_request msg with
  | None -> ()
  | Some (id, args, reply) ->
      let reply_command, reply_args = f msg.Message.command args in
      Runtime.send ctx ~to_:reply reply_command (Value.int id :: reply_args)
