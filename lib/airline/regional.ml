open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Patterns = Dcp_primitives.Patterns
module Store = Dcp_stable.Store
module Clock = Dcp_sim.Clock

let def_name = "regional"

type flight_config = { flight : Types.flight_no; capacity : int }

(* directory = map[flight_no, flight_port] (Figure 4's [map] type). *)
type state = { directory : (int, Port_name.t) Hashtbl.t }

let reply_no_such_flight ctx msg =
  match (msg.Message.args, msg.Message.reply_to) with
  | Value.Int id :: _, Some reply ->
      Runtime.send ctx ~to_:reply "no_such_flight" [ Value.int id ]
  | _, _ -> ()

(* Strip the flight number out of the regional request, producing the
   flight guardian's version of the same request; the request id and reply
   port are preserved so the response bypasses the regional manager. *)
let forward ctx state msg =
  match msg.Message.args with
  | Value.Int id :: Value.Int flight :: rest -> (
      match Hashtbl.find_opt state.directory flight with
      | None -> reply_no_such_flight ctx msg
      | Some flight_port ->
          Patterns.delegate_as ctx ~to_:flight_port ~command:msg.Message.command
            ~args:(Value.int id :: rest) msg)
  | _ -> reply_no_such_flight ctx msg

let serve ctx state =
  let request_port = Runtime.port ctx 0 in
  let rec loop () =
    (match Runtime.receive ctx [ request_port ] with
    | `Timeout -> ()
    | `Msg (_, msg) -> (
        match msg.Message.command with
        | "reserve" | "cancel" | "list_passengers" -> forward ctx state msg
        | _ -> reply_no_such_flight ctx msg));
    loop ()
  in
  loop ()

let config_key = "_config"

let parse_args args =
  match args with
  | [ Value.Listv flights; Value.Int waitlist; Value.Str org; Value.Int service ] ->
      let parse_flight = function
        | Value.Tuple [ Value.Int flight; Value.Int capacity ] -> { flight; capacity }
        | _ -> invalid_arg "regional guardian: bad flight config"
      in
      (List.map parse_flight flights, waitlist, org, service)
  | _ -> invalid_arg "regional guardian: bad creation arguments"

let directory_key flight = Printf.sprintf "flight:%d" flight

let build ctx args =
  let flights, waitlist, org, service = parse_args args in
  let state = { directory = Hashtbl.create 64 } in
  List.iter
    (fun { flight; capacity } ->
      let flight_args =
        [
          Value.int flight;
          Value.int capacity;
          Value.int waitlist;
          Value.str org;
          Value.int service;
          Value.str (Types.accounting_to_string Types.Idempotent_set);
          Value.int 0;
        ]
      in
      (* Flight guardians live at the regional node — placement is the
         programmer's decision (§1.1) and the paper assigns a region's
         flights to the region's node. *)
      let g = Runtime.ctx_create_guardian ctx ~def_name:Flight.def_name ~args:flight_args in
      let port = List.hd (Runtime.guardian_ports g) in
      (* Flight port names survive recovery, so the directory itself can be
         made permanent (§2.2). *)
      Store.set (Runtime.store ctx) ~key:(directory_key flight)
        (Codec.encode_exn (Value.port port));
      Hashtbl.replace state.directory flight port)
    flights;
  state

let def : Runtime.def =
  {
    Runtime.def_name;
    provides = [ (Types.regional_port_type, 512) ];
    init =
      (fun ctx args ->
        Store.set (Runtime.store ctx) ~key:config_key (Codec.encode_exn (Value.list args));
        let state = build ctx args in
        serve ctx state);
    recover =
      Some
        (fun ctx ->
          match Store.get (Runtime.store ctx) ~key:config_key with
          | None -> Runtime.self_destruct ctx
          | Some _ ->
              (* The flight guardians recover on their own (they share the
                 node); the regional manager only needs its directory back,
                 which it logged at creation time. *)
              let state = { directory = Hashtbl.create 64 } in
              Store.fold (Runtime.store ctx) ~init:() ~f:(fun ~key value () ->
                  match String.split_on_char ':' key with
                  | [ "flight"; flight ] ->
                      let port = Value.get_port (Codec.decode_exn value) in
                      Hashtbl.replace state.directory (int_of_string flight) port
                  | _ -> ());
              serve ctx state);
  }

let args ~flights ?(waitlist_capacity = 10) ?(organization = Types.Monitor)
    ?(service_time = Clock.ms 1) () =
  [
    Value.list
      (List.map (fun { flight; capacity } -> Value.tuple [ Value.int flight; Value.int capacity ]) flights);
    Value.int waitlist_capacity;
    Value.str (Types.organization_to_string organization);
    Value.int service_time;
  ]

let create world ~at ~flights ?waitlist_capacity ?organization ?service_time () =
  if Runtime.find_def world Flight.def_name = None then Runtime.register_def world Flight.def;
  if Runtime.find_def world def_name = None then Runtime.register_def world def;
  let args = args ~flights ?waitlist_capacity ?organization ?service_time () in
  let g = Runtime.create_guardian world ~at ~def_name ~args in
  List.hd (Runtime.guardian_ports g)
