open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Port = Dcp_core.Port
module Sync = Dcp_core.Sync
module Store = Dcp_stable.Store
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock

let def_name = "flight"

(* ------------------------------------------------------------------ *)
(* Seat data and its stable-store image                                 *)
(* ------------------------------------------------------------------ *)

type seats = { mutable reserved : string list; mutable waitlist : string list }
(* Both lists hold passengers oldest first. *)

type state = {
  flight : int;
  capacity : int;
  waitlist_capacity : int;
  organization : Types.organization;
  service_time : Clock.time;
  accounting : Types.accounting;
  partner_floor : int;
      (* seats per date that outside-airline ("partner:...") requests may
         not take — §2.3's "a reservation request from some other airline
         might not be permitted to reserve the last seat on a flight" *)
  table : (int, seats) Hashtbl.t;  (** date -> seats (idempotent accounting) *)
  counters : (int, int) Hashtbl.t;  (** date -> reserved count (naive accounting) *)
  holds : (int, string * int) Hashtbl.t;  (** 2PC txid -> tentative (passenger, date) *)
  mutable waitlist_seq : int;  (** orders waitlist entries in the store *)
}

let seats_for state date =
  match Hashtbl.find_opt state.table date with
  | Some s -> s
  | None ->
      let s = { reserved = []; waitlist = [] } in
      Hashtbl.replace state.table date s;
      s

let reserved_key date passenger = Printf.sprintf "r:%d:%s" date passenger
let hold_key txid = Printf.sprintf "h:%d" txid

let holds_on state date =
  Hashtbl.fold (fun _ (_, d) acc -> if d = date then acc + 1 else acc) state.holds 0

let held state passenger date =
  Hashtbl.fold
    (fun _ (p, d) acc -> acc || (d = date && String.equal p passenger))
    state.holds false
let waitlist_key date passenger = Printf.sprintf "w:%d:%s" date passenger
let counter_key date = Printf.sprintf "c:%d" date

(* §2.2: log, then mutate, then reply — a completed (replied-to) operation
   is always in the log. *)

let do_reserve state store passenger date =
  match state.accounting with
  | Types.Naive_counter ->
      let current = Option.value (Hashtbl.find_opt state.counters date) ~default:0 in
      if current >= state.capacity then Types.Full
      else begin
        Store.set store ~key:(counter_key date) (string_of_int (current + 1));
        Hashtbl.replace state.counters date (current + 1);
        Types.Ok_reserved
      end
  | Types.Idempotent_set ->
      let seats = seats_for state date in
      let is_partner =
        String.length passenger >= 8 && String.equal (String.sub passenger 0 8) "partner:"
      in
      let taken = List.length seats.reserved + holds_on state date in
      let limit = if is_partner then state.capacity - state.partner_floor else state.capacity in
      if List.mem passenger seats.reserved then Types.Pre_reserved
      else if taken < limit then begin
        Store.set store ~key:(reserved_key date passenger) "1";
        seats.reserved <- seats.reserved @ [ passenger ];
        Types.Ok_reserved
      end
      else if List.mem passenger seats.waitlist then Types.Wait_listed
      else if (not is_partner) && List.length seats.waitlist < state.waitlist_capacity then begin
        state.waitlist_seq <- state.waitlist_seq + 1;
        Store.set store ~key:(waitlist_key date passenger) (string_of_int state.waitlist_seq);
        seats.waitlist <- seats.waitlist @ [ passenger ];
        Types.Wait_listed
      end
      else Types.Full

let promote_from_waitlist store seats date =
  match seats.waitlist with
  | [] -> ()
  | next :: rest ->
      Store.remove store ~key:(waitlist_key date next);
      Store.set store ~key:(reserved_key date next) "1";
      seats.waitlist <- rest;
      seats.reserved <- seats.reserved @ [ next ]

let do_cancel state store passenger date =
  match state.accounting with
  | Types.Naive_counter ->
      let current = Option.value (Hashtbl.find_opt state.counters date) ~default:0 in
      if current <= 0 then Types.Not_reserved
      else begin
        Store.set store ~key:(counter_key date) (string_of_int (current - 1));
        Hashtbl.replace state.counters date (current - 1);
        Types.Canceled
      end
  | Types.Idempotent_set ->
      let seats = seats_for state date in
      if List.mem passenger seats.reserved then begin
        Store.remove store ~key:(reserved_key date passenger);
        seats.reserved <- List.filter (fun p -> not (String.equal p passenger)) seats.reserved;
        promote_from_waitlist store seats date;
        Types.Canceled
      end
      else if List.mem passenger seats.waitlist then begin
        Store.remove store ~key:(waitlist_key date passenger);
        seats.waitlist <- List.filter (fun p -> not (String.equal p passenger)) seats.waitlist;
        Types.Canceled
      end
      else Types.Not_reserved

let do_list state date =
  match state.accounting with
  | Types.Naive_counter ->
      let current = Option.value (Hashtbl.find_opt state.counters date) ~default:0 in
      List.init current (fun i -> Printf.sprintf "seat-%d" i)
  | Types.Idempotent_set -> (seats_for state date).reserved

(* Rebuild the volatile tables from the recovered stable store. *)
let rebuild state store =
  Hashtbl.reset state.table;
  Hashtbl.reset state.counters;
  let waitlisted = ref [] in
  List.iter
    (fun (key, value) ->
      match String.split_on_char ':' key with
      | [ "r"; date; passenger ] ->
          let seats = seats_for state (int_of_string date) in
          seats.reserved <- seats.reserved @ [ passenger ]
      | [ "w"; date; passenger ] ->
          waitlisted := (int_of_string value, int_of_string date, passenger) :: !waitlisted
      | [ "c"; date ] -> Hashtbl.replace state.counters (int_of_string date) (int_of_string value)
      | [ "h"; txid ] -> (
          match Codec.decode_exn value with
          | Value.Tuple [ Value.Str passenger; Value.Int date ] ->
              Hashtbl.replace state.holds (int_of_string txid) (passenger, date)
          | _ -> ())
      | _ -> ())
    (Store.to_alist store);
  (* Waitlists are rebuilt in their original arrival order. *)
  let waitlist_order (s1, d1, p1) (s2, d2, p2) =
    let c = Int.compare s1 s2 in
    if c <> 0 then c
    else
      let c = Int.compare d1 d2 in
      if c <> 0 then c else String.compare p1 p2
  in
  List.iter
    (fun (seq, date, passenger) ->
      state.waitlist_seq <- Int.max state.waitlist_seq seq;
      let seats = seats_for state date in
      seats.waitlist <- seats.waitlist @ [ passenger ])
    (List.sort waitlist_order !waitlisted)

(* ------------------------------------------------------------------ *)
(* Request handling under the three organizations                      *)
(* ------------------------------------------------------------------ *)

let perform ctx state msg =
  let store = Runtime.store ctx in
  Rpc.serve_always ctx msg ~f:(fun command args ->
      match (command, args) with
      | "reserve", [ Value.Str passenger; Value.Int date ] ->
          (Types.reserve_reply_command (do_reserve state store passenger date), [])
      | "cancel", [ Value.Str passenger; Value.Int date ] ->
          (Types.cancel_reply_command (do_cancel state store passenger date), [])
      | "list_passengers", [ Value.Int date ] ->
          ("info", [ Value.list (List.map Value.str (do_list state date)) ])
      | _ -> ("no_such_flight", []))

(* 2PC participant hooks (§3's "recoverable atomic transactions"): prepare
   places a tentative hold on a seat, commit converts it into a real
   reservation, abort releases it.  Holds are logged, so a crashed
   participant recovers still holding them. *)
let participant_hooks ctx state =
  let store = Runtime.store ctx in
  let prepare ~txid payload =
    match payload with
    | Value.Tuple [ Value.Str passenger; Value.Int date ] ->
        let seats = seats_for state date in
        if List.mem passenger seats.reserved || held state passenger date then
          Error "already booked"
        else if List.length seats.reserved + holds_on state date >= state.capacity then
          Error "full"
        else begin
          Store.set store ~key:(hold_key txid)
            (Codec.encode_exn (Value.tuple [ Value.str passenger; Value.int date ]));
          Hashtbl.replace state.holds txid (passenger, date);
          Ok ()
        end
    | _ -> Error "malformed hold request"
  in
  let commit ~txid =
    match Hashtbl.find_opt state.holds txid with
    | None -> ()
    | Some (passenger, date) ->
        Store.remove store ~key:(hold_key txid);
        Store.set store ~key:(reserved_key date passenger) "1";
        Hashtbl.remove state.holds txid;
        let seats = seats_for state date in
        if not (List.mem passenger seats.reserved) then
          seats.reserved <- seats.reserved @ [ passenger ]
  in
  let abort ~txid =
    match Hashtbl.find_opt state.holds txid with
    | None -> ()
    | Some _ ->
        Store.remove store ~key:(hold_key txid);
        Hashtbl.remove state.holds txid
  in
  { Dcp_primitives.Two_phase.prepare; commit; abort }

let date_of_request msg =
  match msg.Message.args with
  | [ Value.Int _id; Value.Str _; Value.Int date ] -> date
  | [ Value.Int _id; Value.Int date ] -> date
  | _ -> 0

(* Administrative requests (second birth port): list, stats, archive.  They
   never sleep, so they are handled inline by the receiving process. *)
let handle_admin ctx state msg =
  let store = Runtime.store ctx in
  Rpc.serve_always ctx msg ~f:(fun command args ->
      match (command, args) with
      | "list_passengers", [ Value.Int date ] ->
          ("info", [ Value.list (List.map Value.str (do_list state date)) ])
      | "stats", [] ->
          let reserved = ref 0 and waitlisted = ref 0 in
          Hashtbl.iter
            (fun _ seats ->
              reserved := !reserved + List.length seats.reserved;
              waitlisted := !waitlisted + List.length seats.waitlist)
            state.table;
          Hashtbl.iter (fun _ count -> reserved := !reserved + count) state.counters;
          ( "stats",
            [
              Value.record
                [
                  ("dates", Value.int (Hashtbl.length state.table + Hashtbl.length state.counters));
                  ("reserved", Value.int !reserved);
                  ("waitlisted", Value.int !waitlisted);
                  ("holds", Value.int (Hashtbl.length state.holds));
                ];
            ] )
      | "archive_date", [ Value.Int date ] ->
          (* §2.3: "deleting or archiving information about flights that
             have occurred" — drop the date's data, including its log. *)
          let removed = ref 0 in
          (match Hashtbl.find_opt state.table date with
          | Some seats ->
              List.iter
                (fun p ->
                  incr removed;
                  Store.remove store ~key:(reserved_key date p))
                seats.reserved;
              List.iter
                (fun p ->
                  incr removed;
                  Store.remove store ~key:(waitlist_key date p))
                seats.waitlist;
              Hashtbl.remove state.table date
          | None -> ());
          (match Hashtbl.find_opt state.counters date with
          | Some count ->
              removed := !removed + count;
              Store.remove store ~key:(counter_key date);
              Hashtbl.remove state.counters date
          | None -> ());
          ("archived", [ Value.int !removed ])
      | _ -> ("failure", [ Value.str "unknown admin request" ]))

(* 2PC control messages are handled immediately in the receiving process
   (they only flip logged hold state and never sleep), whatever the
   organization; data requests go through the organization's machinery. *)
let handle_2pc ctx state msg =
  Dcp_primitives.Two_phase.handle_participant ctx ~hooks:(participant_hooks ctx state) msg

(* Fig. 1a: process p handles requests sequentially.  Admin traffic has
   priority (earlier in the port list) and is served without the data
   service time. *)
let serve_one_at_a_time ctx state =
  let request_port = Runtime.port ctx 0 in
  let admin_port = Runtime.port ctx 1 in
  let rec loop () =
    match Runtime.receive ctx [ admin_port; request_port ] with
    | `Timeout -> loop ()
    | `Msg (p, msg) ->
        if Port_name.equal (Port.name p) (Port.name admin_port) then handle_admin ctx state msg
        else if not (handle_2pc ctx state msg) then begin
          Runtime.compute ctx state.service_time;
          perform ctx state msg
        end;
        loop ()
  in
  loop ()

(* Fig. 1b: process p uses synchronization data S to decide when requests
   may run, forking a worker q_i per request; one worker per date. *)
let serve_serializer ctx state =
  let request_port = Runtime.port ctx 0 in
  let admin_port = Runtime.port ctx 1 in
  let busy : (int, Message.t Queue.t) Hashtbl.t = Hashtbl.create 16 in
  (* date -> queued requests; presence of a binding means a worker owns the
     date.  The dispatcher is the only writer, so no further locking. *)
  let rec fork_worker date msg =
    ignore
      (Runtime.spawn ctx ~name:(Printf.sprintf "flight%d.worker.d%d" state.flight date)
         (fun () ->
           Runtime.compute ctx state.service_time;
           perform ctx state msg;
           finish date))
  and finish date =
    match Hashtbl.find_opt busy date with
    | None -> ()
    | Some q -> (
        match Queue.take_opt q with
        | Some next -> fork_worker date next
        | None -> Hashtbl.remove busy date)
  in
  let dispatch msg =
    let date = date_of_request msg in
    match Hashtbl.find_opt busy date with
    | Some q -> Queue.add msg q
    | None ->
        Hashtbl.replace busy date (Queue.create ());
        fork_worker date msg
  in
  let rec loop () =
    match Runtime.receive ctx [ admin_port; request_port ] with
    | `Timeout -> loop ()
    | `Msg (p, msg) ->
        if Port_name.equal (Port.name p) (Port.name admin_port) then handle_admin ctx state msg
        else if not (handle_2pc ctx state msg) then dispatch msg;
        loop ()
  in
  loop ()

(* Fig. 1c: fork q_i on receipt; the q_i synchronize with each other using
   monitor M (start_request(date) / end_request(date)). *)
let serve_monitor ctx state =
  let request_port = Runtime.port ctx 0 in
  let admin_port = Runtime.port ctx 1 in
  let monitor : int Sync.keyed_lock = Runtime.sync_keyed_lock ctx in
  let rec loop () =
    match Runtime.receive ctx [ admin_port; request_port ] with
    | `Timeout -> loop ()
    | `Msg (p, msg) ->
        if Port_name.equal (Port.name p) (Port.name admin_port) then begin
          handle_admin ctx state msg;
          loop ()
        end
        else if handle_2pc ctx state msg then loop ()
        else begin
          let date = date_of_request msg in
          ignore
            (Runtime.spawn ctx ~name:(Printf.sprintf "flight%d.req" state.flight) (fun () ->
                 Sync.with_key monitor date (fun () ->
                     Runtime.compute ctx state.service_time;
                     perform ctx state msg)));
          loop ()
        end
  in
  loop ()

let serve ctx state =
  match state.organization with
  | Types.One_at_a_time -> serve_one_at_a_time ctx state
  | Types.Serializer -> serve_serializer ctx state
  | Types.Monitor -> serve_monitor ctx state

(* ------------------------------------------------------------------ *)
(* Guardian definition                                                  *)
(* ------------------------------------------------------------------ *)

let state_of_args args =
  match args with
  | [
   Value.Int flight;
   Value.Int capacity;
   Value.Int waitlist_capacity;
   Value.Str org;
   Value.Int service_ns;
   Value.Str accounting;
   Value.Int partner_floor;
  ] ->
      let organization =
        match Types.organization_of_string org with
        | Some o -> o
        | None -> invalid_arg ("flight guardian: unknown organization " ^ org)
      in
      let accounting =
        match Types.accounting_of_string accounting with
        | Some a -> a
        | None -> invalid_arg ("flight guardian: unknown accounting " ^ accounting)
      in
      {
        flight;
        capacity;
        waitlist_capacity;
        organization;
        service_time = service_ns;
        accounting;
        partner_floor;
        table = Hashtbl.create 32;
        counters = Hashtbl.create 32;
        holds = Hashtbl.create 8;
        waitlist_seq = 0;
      }
  | _ -> invalid_arg "flight guardian: bad creation arguments"

(* The creation arguments are re-logged under a reserved key so the
   recovery process can rebuild the same configuration. *)
let config_key = "_config"

let def : Runtime.def =
  {
    Runtime.def_name;
    provides = [ (Types.flight_port_type, 256); (Types.flight_admin_port_type, 64) ];
    init =
      (fun ctx args ->
        let state = state_of_args args in
        let encoded = Codec.encode_exn (Value.list args) in
        Store.set (Runtime.store ctx) ~key:config_key encoded;
        serve ctx state);
    recover =
      Some
        (fun ctx ->
          let store = Runtime.store ctx in
          match Store.get store ~key:config_key with
          | None ->
              (* the crash tore even the config record: nothing recoverable *)
              Runtime.self_destruct ctx
          | Some encoded ->
              let args = Value.get_list (Codec.decode_exn encoded) in
              let state = state_of_args args in
              rebuild state store;
              serve ctx state);
  }

let args ~flight ~capacity ?(waitlist_capacity = 10) ?(organization = Types.Monitor)
    ?(service_time = Clock.ms 1) ?(accounting = Types.Idempotent_set) ?(partner_floor = 0) () =
  [
    Value.int flight;
    Value.int capacity;
    Value.int waitlist_capacity;
    Value.str (Types.organization_to_string organization);
    Value.int service_time;
    Value.str (Types.accounting_to_string accounting);
    Value.int partner_floor;
  ]

let spawn world ~at args =
  if Runtime.find_def world def_name = None then Runtime.register_def world def;
  let g = Runtime.create_guardian world ~at ~def_name ~args in
  match Runtime.guardian_ports g with
  | [ request; admin ] -> (request, admin)
  | _ -> invalid_arg "flight guardian: unexpected port layout"

let create_with_admin world ~at ~flight ~capacity ?service_time ?partner_floor () =
  spawn world ~at (args ~flight ~capacity ?service_time ?partner_floor ())

let create world ~at ~flight ~capacity ?waitlist_capacity ?organization ?service_time
    ?accounting () =
  fst
    (spawn world ~at
       (args ~flight ~capacity ?waitlist_capacity ?organization ?service_time ?accounting ()))

(* External, read-only view of a flight store's seat ledger, keyed the way
   the store is.  Invariant oracles (Dcp_check) consume this instead of
   re-parsing the key format themselves.  (Kept at the end of the module:
   its field names overlap the internal seat-table record's.) *)
type ledger = {
  reserved : (int * string) list;
  waitlisted : (int * string) list;
  open_holds : int;
}

let ledger_of_store store =
  let reserved = ref [] and waitlisted = ref [] and open_holds = ref 0 in
  List.iter
    (fun (key, _value) ->
      match String.split_on_char ':' key with
      | [ "r"; date; passenger ] -> reserved := (int_of_string date, passenger) :: !reserved
      | [ "w"; date; passenger ] -> waitlisted := (int_of_string date, passenger) :: !waitlisted
      | [ "h"; _txid ] -> incr open_holds
      | _ -> ())
    (Store.to_alist store);
  { reserved = List.rev !reserved; waitlisted = List.rev !waitlisted; open_holds = !open_holds }
