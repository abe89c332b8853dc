open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Store = Dcp_stable.Store
module Clock = Dcp_sim.Clock

(* Request ids for protocol messages live in their own range so they never
   collide with Rpc's ids or the bank's derived ids.  Like Rpc's ids they
   are encoded into message bytes, so they come from the world's
   deterministic mint (offset into the range). *)
let fresh_rid ctx = 2_000_000_000 + Runtime.ctx_mint_id ctx

(* ------------------------------------------------------------------ *)
(* Participant                                                          *)
(* ------------------------------------------------------------------ *)

type participant_hooks = {
  prepare : txid:int -> Value.t -> (unit, string) result;
  commit : txid:int -> unit;
  abort : txid:int -> unit;
}

let participant_signatures =
  [
    Rpc.request_signature "prepare" [ Vtype.Tint; Vtype.Tany ]
      ~replies:
        [ Vtype.reply "vote_commit" [ Vtype.Tint ]; Vtype.reply "vote_abort" [ Vtype.Tint; Vtype.Tstr ] ];
    Rpc.request_signature "commit" [ Vtype.Tint ] ~replies:[ Vtype.reply "acked" [ Vtype.Tint ] ];
    Rpc.request_signature "abort" [ Vtype.Tint ] ~replies:[ Vtype.reply "acked" [ Vtype.Tint ] ];
  ]

let pstate_key txid = Printf.sprintf "2pc:p:%d" txid

(* The per-txid participant state is logged in the guardian's own store, so
   a participant that crashed while prepared still answers duplicates
   consistently after recovery. *)
let handle_participant ctx ~hooks msg =
  let store = Runtime.store ctx in
  let reply command args =
    match msg.Message.reply_to with
    | Some reply -> Runtime.send ctx ~to_:reply command args
    | None -> ()
  in
  match (msg.Message.command, msg.Message.args) with
  | "prepare", [ Value.Int rid; Value.Int txid; payload ] ->
      (match Store.get store ~key:(pstate_key txid) with
      | Some "prepared" | Some "committed" ->
          reply "vote_commit" [ Value.int rid; Value.int txid ]
      | Some _ -> reply "vote_abort" [ Value.int rid; Value.int txid; Value.str "aborted" ]
      | None -> (
          match hooks.prepare ~txid payload with
          | Ok () ->
              Store.set store ~key:(pstate_key txid) "prepared";
              reply "vote_commit" [ Value.int rid; Value.int txid ]
          | Error reason ->
              Store.set store ~key:(pstate_key txid) "refused";
              reply "vote_abort" [ Value.int rid; Value.int txid; Value.str reason ]));
      true
  | "commit", [ Value.Int rid; Value.Int txid ] ->
      (match Store.get store ~key:(pstate_key txid) with
      | Some "prepared" ->
          hooks.commit ~txid;
          Store.set store ~key:(pstate_key txid) "committed"
      | Some _ | None -> () (* duplicate or unknown: answer idempotently *));
      reply "acked" [ Value.int rid; Value.int txid ];
      true
  | "abort", [ Value.Int rid; Value.Int txid ] ->
      (match Store.get store ~key:(pstate_key txid) with
      | Some "prepared" ->
          hooks.abort ~txid;
          Store.set store ~key:(pstate_key txid) "aborted"
      | Some _ | None -> ());
      reply "acked" [ Value.int rid; Value.int txid ];
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Coordinator                                                          *)
(* ------------------------------------------------------------------ *)

type decision = Committed | Aborted of string

let decision_key txid = Printf.sprintf "2pc:c:%d" txid

let encode_decision ~decision ~ports ~acked =
  let committed, reason = match decision with Committed -> (true, "") | Aborted r -> (false, r) in
  Codec.encode_exn
    (Value.record
       [
         ("committed", Value.bool committed);
         ("reason", Value.str reason);
         ("ports", Value.list (List.map Value.port ports));
         ("acked", Value.bool acked);
       ])

let decode_decision encoded =
  let v = Codec.decode_exn encoded in
  let committed = Value.get_bool (Value.field v "committed") in
  let reason = Value.get_str (Value.field v "reason") in
  let ports = List.map Value.get_port (Value.get_list (Value.field v "ports")) in
  let acked = Value.get_bool (Value.field v "acked") in
  ((if committed then Committed else Aborted reason), ports, acked)

(* Send [command(rid, txid)] to every port and collect matching acks until
   the deadline; returns the set of ports that acknowledged. *)
let announce_round ctx ~reply_port ~txid ~command ~ports ~timeout =
  let pending = Hashtbl.create 8 in
  List.iter
    (fun port ->
      let rid = fresh_rid ctx in
      Hashtbl.replace pending rid port;
      Runtime.send ctx ~to_:port ~reply_to:(Port.name reply_port) command
        [ Value.int rid; Value.int txid ])
    ports;
  let deadline = Clock.add (Runtime.ctx_now ctx) timeout in
  let rec collect acked =
    if Hashtbl.length pending = 0 then acked
    else
      let remaining = Clock.diff deadline (Runtime.ctx_now ctx) in
      if remaining <= 0 then acked
      else
        match Runtime.receive ctx ~timeout:remaining [ reply_port ] with
        | `Timeout -> acked
        | `Msg (_, msg) -> (
            match (msg.Message.command, msg.Message.args) with
            | "acked", Value.Int rid :: _ -> (
                match Hashtbl.find_opt pending rid with
                | Some port ->
                    Hashtbl.remove pending rid;
                    collect (port :: acked)
                | None -> collect acked)
            | _ -> collect acked)
  in
  collect []

(* Announce the decision until every participant acked or we run out of
   rounds; returns true when fully acknowledged. *)
let announce_until_acked ctx ~reply_port ~txid ~command ~ports ~timeout ~rounds =
  let rec go remaining ports =
    if ports = [] then true
    else if remaining = 0 then false
    else begin
      let acked = announce_round ctx ~reply_port ~txid ~command ~ports ~timeout in
      let still = List.filter (fun p -> not (List.memq p acked)) ports in
      go (remaining - 1) still
    end
  in
  go rounds ports

(* How long phase 1 waits for votes, and each announcement round for acks
   (in [coordinate] and in [redeliver_decisions] alike). *)
let prepare_timeout = Clock.s 1
let ack_timeout = Clock.ms 500

let coordinate ctx ~txid ~participants =
  let store = Runtime.store ctx in
  let reply_port = Runtime.new_port ctx ~capacity:256 [ Vtype.wildcard ] in
  let ports = List.map fst participants in
  (* Phase 1: prepare everyone in parallel. *)
  let pending = Hashtbl.create 8 in
  List.iter
    (fun (port, payload) ->
      let rid = fresh_rid ctx in
      Hashtbl.replace pending rid port;
      Runtime.send ctx ~to_:port ~reply_to:(Port.name reply_port) "prepare"
        [ Value.int rid; Value.int txid; payload ])
    participants;
  let deadline = Clock.add (Runtime.ctx_now ctx) prepare_timeout in
  let rec gather abort_reason =
    if Hashtbl.length pending = 0 then abort_reason
    else
      let remaining = Clock.diff deadline (Runtime.ctx_now ctx) in
      if remaining <= 0 then Some "participant did not vote in time"
      else
        match Runtime.receive ctx ~timeout:remaining [ reply_port ] with
        | `Timeout -> Some "participant did not vote in time"
        | `Msg (_, msg) -> (
            match (msg.Message.command, msg.Message.args) with
            | "vote_commit", Value.Int rid :: _ ->
                Hashtbl.remove pending rid;
                gather abort_reason
            | "vote_abort", [ Value.Int rid; Value.Int _; Value.Str reason ] ->
                Hashtbl.remove pending rid;
                gather (Some reason)
            | "failure", [ Value.Str reason ] ->
                (* a prepare bounced (dead port etc.) — abort, although we
                   cannot tell whose prepare it was *)
                gather (Some reason)
            | _ -> gather abort_reason)
  in
  let abort_reason = gather None in
  let decision = match abort_reason with None -> Committed | Some r -> Aborted r in
  (* Log the decision (with the participant set) before announcing it. *)
  Store.set store ~key:(decision_key txid) (encode_decision ~decision ~ports ~acked:false);
  let command = match decision with Committed -> "commit" | Aborted _ -> "abort" in
  let all_acked =
    announce_until_acked ctx ~reply_port ~txid ~command ~ports ~timeout:ack_timeout ~rounds:3
  in
  if all_acked then
    Store.set store ~key:(decision_key txid) (encode_decision ~decision ~ports ~acked:true);
  Runtime.remove_port ctx reply_port;
  decision

let unacked_decisions store =
  (* Key-sorted enumeration: recovery redelivers decisions in a
     deterministic order. *)
  List.filter_map
    (fun (key, value) ->
      match String.split_on_char ':' key with
      | [ "2pc"; "c"; txid ] ->
          let decision, ports, acked = decode_decision value in
          if acked then None else Some (int_of_string txid, decision, ports)
      | _ -> None)
    (Store.to_alist store)

let redeliver_decisions ctx =
  let store = Runtime.store ctx in
  let pending = unacked_decisions store in
  let reply_port = Runtime.new_port ctx ~capacity:256 [ Vtype.wildcard ] in
  List.iter
    (fun (txid, decision, ports) ->
      let command = match decision with Committed -> "commit" | Aborted _ -> "abort" in
      let all_acked =
        announce_until_acked ctx ~reply_port ~txid ~command ~ports ~timeout:ack_timeout ~rounds:5
      in
      if all_acked then
        Store.set store ~key:(decision_key txid) (encode_decision ~decision ~ports ~acked:true))
    pending;
  Runtime.remove_port ctx reply_port;
  List.length pending

let pending_decisions store = List.length (unacked_decisions store)
