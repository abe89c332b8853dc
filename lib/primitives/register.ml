open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Store = Dcp_stable.Store
module Metrics = Dcp_sim.Metrics
module Clock = Dcp_sim.Clock

let def_name = "scd_register"
let metric_malformed = "register.malformed"

let port_type =
  [
    Rpc.request_signature "write" [ Vtype.Tstr; Vtype.Tany ]
      ~replies:[ Vtype.reply "written" []; Vtype.reply "not_ready" [] ];
    Rpc.request_signature "read" [ Vtype.Tstr ]
      ~replies:
        [
          Vtype.reply "value" [ Vtype.Tany ];
          Vtype.reply "unknown_key" [];
          Vtype.reply "not_ready" [];
        ];
    Scd.members_signature;
  ]
  @ Scd.signatures

(* ---- the LWW table, durable, shared with Snapshot ---- *)

module Table = struct
  type t = (string, Value.t * Scd.ts) Hashtbl.t

  let prefix = "k:"
  let mirror_key key = prefix ^ key

  let is_mirror_key key =
    String.length key >= 2 && String.equal (String.sub key 0 2) prefix

  (* "<clock> <origin> <payload bytes>"; the payload encoding may contain
     any byte, so only the first two spaces separate. *)
  let encode_entry value (clock, origin) =
    Printf.sprintf "%d %d %s" clock origin (Codec.encode_exn value)

  let decode_entry data =
    match String.index_opt data ' ' with
    | None -> None
    | Some i -> (
        let rest = String.sub data (i + 1) (String.length data - i - 1) in
        match String.index_opt rest ' ' with
        | None -> None
        | Some j -> (
            let clock = int_of_string_opt (String.sub data 0 i) in
            let origin = int_of_string_opt (String.sub rest 0 j) in
            let bytes = String.sub rest (j + 1) (String.length rest - j - 1) in
            match (clock, origin, Codec.decode bytes) with
            | Some clock, Some origin, Ok value when clock > 0 && origin >= 0 ->
                Some (value, (clock, origin))
            | _ -> None))

  let restore store =
    let table = Hashtbl.create 32 in
    List.iter
      (fun (key, data) ->
        if is_mirror_key key then
          match decode_entry data with
          | Some entry ->
              Hashtbl.replace table (String.sub key 2 (String.length key - 2)) entry
          | None -> Store.remove store ~key (* torn record: drop it *))
      (Store.to_alist store);
    table

  let apply ctx table ~key ~value ~ts =
    match Hashtbl.find_opt table key with
    | Some (_, existing) when Scd.ts_compare existing ts >= 0 -> ()
    | Some _ | None ->
        Hashtbl.replace table key (value, ts);
        Store.set (Runtime.store ctx) ~key:(mirror_key key) (encode_entry value ts)

  let get table key = Hashtbl.find_opt table key

  let sorted_entries table =
    Hashtbl.fold (fun key (value, ts) acc -> (key, value, ts) :: acc) table []
    |> List.sort (fun (k1, _, _) (k2, _, _) -> String.compare k1 k2)

  let in_store store =
    List.filter_map
      (fun (key, data) ->
        if is_mirror_key key then
          Option.map
            (fun (_, ts) -> (String.sub key 2 (String.length key - 2), ts))
            (decode_entry data)
        else None)
      (Store.to_alist store)
end

(* ---- the SCD member core, shared with Snapshot ---- *)

module Member = struct
  type answer = Table.t -> string * Value.t list

  type op = Deferred of Value.t * answer | Immediate of Value.t option * answer

  type dispatch = string -> Value.t list -> op option

  let write_payload ~key ~value = Value.tuple [ Value.str "w"; Value.str key; value ]
  let sync_payload = Value.tuple [ Value.str "s" ]

  (* "rid:<id>" holds "?" from the moment a request starts mutating until
     its reply is known, then the encoded reply.  A duplicate
     (network-duplicated or retried) of a finished request gets the
     recorded reply; a duplicate of an in-flight or crash-interrupted one
     is dropped — re-executing it would broadcast the write a second time
     under a fresh timestamp, which is exactly the double-apply that breaks
     atomicity. *)
  let rid_key rid = Printf.sprintf "rid:%d" rid
  let inflight_marker = "?"

  let record_inflight ctx rid =
    Store.set (Runtime.store ctx) ~key:(rid_key rid) inflight_marker

  let record_reply ctx rid ~command args =
    Store.set (Runtime.store ctx) ~key:(rid_key rid)
      (Codec.encode_exn (Value.tuple [ Value.str command; Value.list args ]))

  let recorded_reply store rid =
    match Store.get store ~key:(rid_key rid) with
    | None -> None
    | Some data when String.equal data inflight_marker -> Some None
    | Some data -> (
        match Codec.decode data with
        | Ok (Value.Tuple [ Value.Str command; Value.Listv args ]) ->
            Some (Some (command, args))
        | Ok _ | Error _ -> Some None)

  type pending = { reply : Port_name.t; rid : int; answer : answer }

  type state = {
    scd : Scd.t;
    table : Table.t;
    dispatch : dispatch;
    pending : (int, pending) Hashtbl.t;  (** own broadcast seq -> parked request *)
    malformed : Metrics.counter;
  }

  let send_reply ctx ~reply ~rid command args =
    Runtime.send ctx ~to_:reply command (Value.int rid :: args)

  let answer_now ctx st ~reply ~rid answer =
    let command, args = answer st.table in
    record_reply ctx rid ~command args;
    send_reply ctx ~reply ~rid command args

  (* Resolve one parked request after its own broadcast was delivered: the
     reply (and its durable record) reflects the table at that delivery
     point. *)
  let resolve ctx st ~seq =
    match Hashtbl.find_opt st.pending seq with
    | None -> () (* parked pre-crash: the requester's reply is forgotten *)
    | Some p ->
        Hashtbl.remove st.pending seq;
        answer_now ctx st ~reply:p.reply ~rid:p.rid p.answer

  (* Apply every newly delivered set: writes first (in ts order — LWW makes
     the grouping into sets immaterial), then answer the parked requests
     whose own messages are in the set. *)
  let apply_deliveries ctx st =
    List.iter
      (fun set ->
        List.iter
          (fun (d : Scd.delivery) ->
            match d.Scd.payload with
            | Value.Tuple [ Value.Str "w"; Value.Str key; value ] ->
                Table.apply ctx st.table ~key ~value ~ts:d.Scd.ts
            | _ -> () (* sync markers carry no effect *))
          set;
        List.iter
          (fun (d : Scd.delivery) ->
            if d.Scd.id.Scd.origin = Scd.self st.scd then resolve ctx st ~seq:d.Scd.id.Scd.seq)
          set)
      (Scd.drain st.scd)

  let handle_request ctx st ~reply ~rid command args =
    match recorded_reply (Runtime.store ctx) rid with
    | Some (Some (recorded, recorded_args)) -> send_reply ctx ~reply ~rid recorded recorded_args
    | Some None -> () (* in flight (or lost to a crash): never re-execute *)
    | None -> (
        match (st.dispatch command args, command) with
        | Some (Deferred (payload, answer)), _ ->
            record_inflight ctx rid;
            let id = Scd.broadcast ctx st.scd payload in
            Hashtbl.replace st.pending id.Scd.seq { reply; rid; answer }
        | Some (Immediate (payload, answer)), _ ->
            Option.iter (fun payload -> ignore (Scd.broadcast ctx st.scd payload)) payload;
            answer_now ctx st ~reply ~rid answer
        | None, "members" ->
            (* Idempotent re-join offer from a bootstrap retry. *)
            send_reply ctx ~reply ~rid "members_ok" []
        | None, _ -> Metrics.incr st.malformed)

  let serve ctx st =
    let request_port = Runtime.port ctx 0 in
    Scd.spawn_ticker ctx st.scd;
    let rec loop () =
      (match Runtime.receive ctx [ request_port ] with
      | `Timeout -> ()
      | `Msg (_, msg) -> (
          match Scd.handle ctx st.scd msg with
          | `Handled -> apply_deliveries ctx st
          | `Unrelated -> (
              match (msg.Message.command, msg.Message.args, msg.Message.reply_to) with
              | "failure", _, _ -> ()
              | command, Value.Int rid :: args, Some reply ->
                  handle_request ctx st ~reply ~rid command args;
                  apply_deliveries ctx st
              | _ -> Metrics.incr st.malformed)));
      loop ()
    in
    loop ()

  let make_state ctx ~scd ~dispatch =
    {
      scd;
      table = Table.restore (Runtime.store ctx);
      dispatch;
      pending = Hashtbl.create 16;
      malformed = Metrics.counter (Runtime.ctx_metrics ctx) metric_malformed;
    }

  (* Before the bootstrap introduces the group there is no Scd yet: park on
     the request port, refuse real operations with not_ready, and switch to
     serving on the first members offer. *)
  let await_members ctx ~config ~dispatch =
    let request_port = Runtime.port ctx 0 in
    let rec wait () =
      match Runtime.receive ctx [ request_port ] with
      | `Timeout -> wait ()
      | `Msg (_, msg) -> (
          match (msg.Message.command, msg.Message.args, msg.Message.reply_to) with
          | "members", [ Value.Int rid; members_arg ], Some reply -> (
              match Scd.parse_members [ members_arg ] with
              | Some members when members <> [] ->
                  let scd = Scd.create ctx ~config ~members () in
                  let st = make_state ctx ~scd ~dispatch in
                  send_reply ctx ~reply ~rid "members_ok" [];
                  serve ctx st
              | Some _ | None -> wait ())
          | _, Value.Int rid :: _, Some reply ->
              send_reply ctx ~reply ~rid "not_ready" [];
              wait ()
          | _ -> wait ())
    in
    wait ()

  let def ~def_name ~port_type ~init ~in_store =
    let recover ctx =
      let store = Runtime.store ctx in
      let dispatch = in_store store in
      match Scd.recover ctx with
      | Some scd -> serve ctx (make_state ctx ~scd ~dispatch)
      | None -> await_members ctx ~config:(Scd.config_in_store store) ~dispatch
    in
    {
      Runtime.def_name;
      provides = [ (port_type, 512) ];
      init =
        (fun ctx args ->
          match args with
          | Value.Int status_every :: rest when status_every > 0 ->
              let dispatch = init ctx rest in
              let config = { Scd.status_every } in
              Scd.persist_group_config ctx config;
              await_members ctx ~config ~dispatch
          | _ -> invalid_arg (def_name ^ ": bad creation arguments"));
      recover = Some recover;
    }

  let create_group world (def : Runtime.def) ~nodes ~args ~introduce_at =
    let def_name = def.Runtime.def_name in
    if nodes = [] then invalid_arg (def_name ^ ": need at least one node");
    if Runtime.find_def world def_name = None then Runtime.register_def world def;
    let ports =
      List.map
        (fun at ->
          let g = Runtime.create_guardian world ~at ~def_name ~args in
          List.hd (Runtime.guardian_ports g))
        nodes
    in
    Scd.introduce world ~group:def_name ~at:introduce_at ~members:ports;
    ports
end

(* ---- the register ---- *)

let mode_key = "cfg:mode"

let dispatch ~stale_reads command args =
  match (command, args) with
  | "write", [ Value.Str key; value ] ->
      let payload = Member.write_payload ~key ~value in
      let answer _ = ("written", []) in
      (* The deliberate mutation, write half: acknowledge on broadcast
         instead of on delivery, so the ack can precede the write being
         readable anywhere — the classic fast-ack atomicity bug the
         linearizability oracle exists to catch. *)
      Some
        (if stale_reads then Member.Immediate (Some payload, answer)
         else Member.Deferred (payload, answer))
  | "read", [ Value.Str key ] ->
      let answer table =
        match Table.get table key with
        | Some (value, _) -> ("value", [ value ])
        | None -> ("unknown_key", [])
      in
      (* The deliberate mutation, read half: no delivery barrier, so the
         reply can predate writes already acknowledged elsewhere. *)
      Some
        (if stale_reads then Member.Immediate (None, answer)
         else Member.Deferred (Member.sync_payload, answer))
  | _ -> None

let def =
  Member.def ~def_name ~port_type
    ~init:(fun ctx -> function
      | [ Value.Bool stale_reads ] ->
          Store.set (Runtime.store ctx) ~key:mode_key
            (if stale_reads then "stale" else "atomic");
          dispatch ~stale_reads
      | _ -> invalid_arg "register: bad creation arguments")
    ~in_store:(fun store ->
      dispatch
        ~stale_reads:
          (match Store.get store ~key:mode_key with Some "stale" -> true | Some _ | None -> false))

let create_group world ~nodes ?(status_every = Clock.ms 100) ?(stale_reads = false) ~introduce_at
    () =
  Member.create_group world def ~nodes ~introduce_at
    ~args:[ Value.int status_every; Value.bool stale_reads ]

let write ctx ~register ~key ~value ~timeout =
  match
    Rpc.call ctx ~to_:register ~timeout ~attempts:1 "write" [ Value.str key; value ]
  with
  | Rpc.Reply ("written", _) -> true
  | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> false

let read ctx ~register ~key ~timeout =
  match Rpc.call ctx ~to_:register ~timeout ~attempts:1 "read" [ Value.str key ] with
  | Rpc.Reply ("value", [ value ]) -> Some value
  | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> None
