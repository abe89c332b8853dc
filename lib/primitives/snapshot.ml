open Dcp_wire
module Runtime = Dcp_core.Runtime
module Clock = Dcp_sim.Clock
module Member = Register.Member

let def_name = "scd_snapshot"

let state_entry_type = Vtype.Ttuple [ Vtype.Tstr; Vtype.Tany ]

let port_type =
  [
    Rpc.request_signature "update" [ Vtype.Tstr; Vtype.Tany ]
      ~replies:[ Vtype.reply "updated" []; Vtype.reply "not_ready" [] ];
    Rpc.request_signature "snapshot" []
      ~replies:
        [ Vtype.reply "state" [ Vtype.Tlist state_entry_type ]; Vtype.reply "not_ready" [] ];
    Scd.members_signature;
  ]
  @ Scd.signatures

(* The atomic view: the whole table at this member's delivery point,
   key-sorted so identical states always encode identically. *)
let state_value table =
  Value.list
    (List.map
       (fun (key, value, _) -> Value.tuple [ Value.str key; value ])
       (Register.Table.sorted_entries table))

let dispatch command args =
  match (command, args) with
  | "update", [ Value.Str key; value ] ->
      Some (Member.Deferred (Member.write_payload ~key ~value, fun _ -> ("updated", [])))
  | "snapshot", [] ->
      Some (Member.Deferred (Member.sync_payload, fun table -> ("state", [ state_value table ])))
  | _ -> None

let def =
  Member.def ~def_name ~port_type
    ~init:(fun _ -> function [] -> dispatch | _ -> invalid_arg "snapshot: bad creation arguments")
    ~in_store:(fun _ -> dispatch)

let create_group world ~nodes ?(status_every = Clock.ms 100) ~introduce_at () =
  Member.create_group world def ~nodes ~introduce_at ~args:[ Value.int status_every ]

let update ctx ~snapshot ~key ~value ~timeout =
  match
    Rpc.call ctx ~to_:snapshot ~timeout ~attempts:1 "update" [ Value.str key; value ]
  with
  | Rpc.Reply ("updated", _) -> true
  | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> false

let scan ctx ~snapshot ~timeout =
  match Rpc.call ctx ~to_:snapshot ~timeout ~attempts:1 "snapshot" [] with
  | Rpc.Reply ("state", [ Value.Listv entries ]) ->
      List.fold_left
        (fun acc v ->
          match (acc, v) with
          | Some parsed, Value.Tuple [ Value.Str key; value ] -> Some ((key, value) :: parsed)
          | _, _ -> None)
        (Some []) entries
      |> Option.map List.rev
  | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> None
