(* SCD-broadcast properties over randomized delivery schedules.  A probe
   guardian embeds an {!Scd.t} and records every delivered set into its
   stable store; worlds built from random (seed, members, messages, loss)
   tuples then get judged against the abstraction's contract:

   - Containment/Integrity: each member's sets partition a subset of the
     broadcasts — no duplicates, no inventions;
   - MS-Ordering: no two members deliver two messages in opposite
     set-orders;
   - Termination (no crashes here): every confirmed broadcast is delivered
     at every member, and all members deliver the same message set. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Scd = Dcp_primitives.Scd
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link
module Store = Dcp_stable.Store
module Rng = Dcp_rng.Rng

let probe_def_name = "scd_probe"
let probe_status_every = Clock.ms 50

let probe_port_type =
  [
    Rpc.request_signature "bcast" [ Vtype.Tint ]
      ~replies:
        [ Vtype.reply "bcast_ok" [ Vtype.Tint; Vtype.Tint ]; Vtype.reply "not_ready" [] ];
    Scd.members_signature;
  ]
  @ Scd.signatures

let record_sets ctx counter sets =
  List.iter
    (fun set ->
      let line =
        String.concat " "
          (List.map
             (fun (d : Scd.delivery) ->
               Printf.sprintf "%d.%d" d.Scd.id.Scd.origin d.Scd.id.Scd.seq)
             set)
      in
      Store.set (Runtime.store ctx) ~key:(Printf.sprintf "d:%06d" !counter) line;
      incr counter)
    sets

let probe_def : Runtime.def =
  {
    Runtime.def_name = probe_def_name;
    provides = [ (probe_port_type, 64) ];
    init =
      (fun ctx _ ->
        let request_port = Runtime.port ctx 0 in
        let counter = ref 0 in
        let reply_to ~reply ~rid command args =
          Runtime.send ctx ~to_:reply command (Value.int rid :: args)
        in
        let serve scd =
          Scd.spawn_ticker ctx scd;
          let rec loop () =
            (match Runtime.receive ctx [ request_port ] with
          | `Timeout -> ()
          | `Msg (_, msg) -> (
              match Scd.handle ctx scd msg with
              | `Handled -> record_sets ctx counter (Scd.drain scd)
              | `Unrelated -> (
                  match (msg.Message.command, msg.Message.args, msg.Message.reply_to) with
                  | "bcast", [ Value.Int rid; payload ], Some reply ->
                      let id = Scd.broadcast ctx scd payload in
                      record_sets ctx counter (Scd.drain scd);
                      reply_to ~reply ~rid "bcast_ok"
                        [ Value.int id.Scd.origin; Value.int id.Scd.seq ]
                  | "members", Value.Int rid :: _, Some reply ->
                      reply_to ~reply ~rid "members_ok" []
                  | _ -> ())));
            loop ()
          in
          loop ()
        in
        let rec await () =
          match Runtime.receive ctx [ request_port ] with
          | `Timeout -> await ()
          | `Msg (_, msg) -> (
              match (msg.Message.command, msg.Message.args, msg.Message.reply_to) with
              | "members", [ Value.Int rid; members_arg ], Some reply -> (
                  match Scd.parse_members [ members_arg ] with
                  | Some members when members <> [] ->
                      let scd =
                        Scd.create ctx
                          ~config:{ Scd.status_every = probe_status_every }
                          ~members ()
                      in
                      Store.set (Runtime.store ctx) ~key:"probe:self"
                        (string_of_int (Scd.self scd));
                      reply_to ~reply ~rid "members_ok" [];
                      serve scd
                  | Some _ | None -> await ())
              | _, Value.Int rid :: _, Some reply ->
                  reply_to ~reply ~rid "not_ready" [];
                  await ()
              | _ -> await ())
        in
        await ());
    recover = None;
  }

let driver world ~at ~name body =
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

let parse_id part =
  match String.index_opt part '.' with
  | None -> None
  | Some i -> (
      let origin = int_of_string_opt (String.sub part 0 i) in
      let seq = int_of_string_opt (String.sub part (i + 1) (String.length part - i - 1)) in
      match (origin, seq) with Some o, Some s -> Some (o, s) | _ -> None)

(* One world: [n] probe members plus a driver node issuing [msgs]
   broadcasts to random members.  Returns the confirmed (origin, seq) ids
   and, per member, its delivered sets in delivery order. *)
let run_schedule ~seed ~n ~msgs ~lossy =
  let link = if lossy then Link.lossy 0.05 else Link.lan in
  let world = Runtime.create_world ~seed ~topology:(Topology.full_mesh ~n:(n + 1) link) () in
  Runtime.register_def world probe_def;
  let ports =
    List.map
      (fun at ->
        List.hd
          (Runtime.guardian_ports (Runtime.create_guardian world ~at ~def_name:probe_def_name ~args:[])))
      (List.init n Fun.id)
  in
  Scd.introduce world ~group:"probe" ~at:n ~members:ports;
  let ports_arr = Array.of_list ports in
  let confirmed = ref [] in
  driver world ~at:n ~name:"scd_probe_driver" (fun ctx ->
      let rng = Rng.split (Runtime.world_rng world) in
      Runtime.sleep ctx (Clock.ms 200);
      for i = 1 to msgs do
        (match
           Rpc.call ctx
             ~to_:ports_arr.(Rng.int rng n)
             ~timeout:(Clock.ms 800) ~attempts:1
             ~request_id:(4_100_000_000 + i)
             "bcast" [ Value.int i ]
         with
        | Rpc.Reply ("bcast_ok", [ Value.Int origin; Value.Int seq ]) ->
            confirmed := (origin, seq) :: !confirmed
        | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> ());
        Runtime.sleep ctx (Clock.ms (10 + Rng.int rng 40))
      done);
  Runtime.run_for world (Clock.s 20);
  let members =
    Runtime.find_guardians world ~def_name:probe_def_name
    |> List.filter_map (fun g ->
           let store = Runtime.guardian_store g in
           match Option.bind (Store.get store ~key:"probe:self") int_of_string_opt with
           | None -> None
           | Some self ->
               let sets =
                 Store.to_alist store
                 |> List.filter (fun (k, _) ->
                        String.length k >= 2 && String.equal (String.sub k 0 2) "d:")
                 |> List.sort (fun (a, _) (b, _) -> String.compare a b)
                 |> List.map (fun (_, line) ->
                        List.filter_map parse_id (String.split_on_char ' ' line))
               in
               Some (self, sets))
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  (!confirmed, members)

let fail fmt = QCheck2.Test.fail_reportf fmt

(* id -> index of the set it arrived in, for one member. *)
let set_index sets =
  let index = Hashtbl.create 64 in
  List.iteri
    (fun set_i ids ->
      List.iter
        (fun id ->
          if Hashtbl.mem index id then
            fail "containment: member delivered %d.%d twice" (fst id) (snd id);
          Hashtbl.add index id set_i)
        ids)
    sets;
  index

let check_properties ~n ~confirmed ~members =
  if List.length members <> n then
    fail "expected %d probe members, found %d" n (List.length members);
  let indices = List.map (fun (self, sets) -> (self, set_index sets)) members in
  (* Integrity: nothing delivered was invented. *)
  List.iter
    (fun (self, index) ->
      Hashtbl.iter
        (fun (origin, seq) _ ->
          if origin < 0 || origin >= n || seq < 1 then
            fail "member %d delivered invented id %d.%d" self origin seq)
        index)
    indices;
  (* Termination: every confirmed broadcast reached every member, and all
     members delivered the same message set. *)
  List.iter
    (fun (origin, seq) ->
      List.iter
        (fun (self, index) ->
          if not (Hashtbl.mem index (origin, seq)) then
            fail "termination: confirmed %d.%d missing at member %d" origin seq self)
        indices)
    confirmed;
  (match indices with
  | [] -> ()
  | (_, first) :: rest ->
      List.iter
        (fun (self, index) ->
          if Hashtbl.length index <> Hashtbl.length first then
            fail "termination: member %d delivered %d messages, member 0 delivered %d" self
              (Hashtbl.length index) (Hashtbl.length first);
          Hashtbl.iter
            (fun id _ ->
              if not (Hashtbl.mem first id) then
                fail "termination: member %d delivered %d.%d, member 0 did not" self (fst id)
                  (snd id))
            index)
        rest);
  (* MS-Ordering: no opposite set-orders between any two members. *)
  let ids =
    match indices with
    | [] -> []
    | (_, first) :: _ -> Hashtbl.fold (fun id _ acc -> id :: acc) first []
  in
  List.iter
    (fun (p, pi) ->
      List.iter
        (fun (q, qi) ->
          if p < q then
            List.iter
              (fun a ->
                List.iter
                  (fun b ->
                    match
                      ( Hashtbl.find_opt pi a,
                        Hashtbl.find_opt pi b,
                        Hashtbl.find_opt qi a,
                        Hashtbl.find_opt qi b )
                    with
                    | Some pa, Some pb, Some qa, Some qb ->
                        if pa < pb && qb < qa then
                          fail
                            "MS-ordering: member %d delivers %d.%d before %d.%d, member %d \
                             the opposite"
                            p (fst a) (snd a) (fst b) (snd b) q
                    | _ -> ())
                  ids)
              ids)
        indices)
    indices;
  true

let prop_scd_properties =
  QCheck2.Test.make ~name:"SCD containment, MS-ordering, termination over random schedules"
    ~count:15
    QCheck2.Gen.(
      quad (int_range 1 1_000_000) (int_range 2 4) (int_range 1 15) bool)
    (fun (seed, n, msgs, lossy) ->
      let confirmed, members = run_schedule ~seed ~n ~msgs ~lossy in
      check_properties ~n ~confirmed ~members)

(* The implementation promises more than SCD: totally ordered delivery.
   On a fixed lossless point, the flattened delivery sequences must be
   identical across members — the property the register layer builds on. *)
let test_total_order () =
  let _, members = run_schedule ~seed:42 ~n:3 ~msgs:12 ~lossy:false in
  let flattened = List.map (fun (_, sets) -> List.concat sets) members in
  match flattened with
  | [] -> Alcotest.fail "no members"
  | first :: rest ->
      Alcotest.(check bool) "some messages delivered" true (first <> []);
      List.iteri
        (fun i other ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "member %d delivers in the same total order" (i + 1))
            first other)
        rest

let tests =
  [
    QCheck_alcotest.to_alcotest prop_scd_properties;
    Alcotest.test_case "lossless delivery is totally ordered" `Quick test_total_order;
  ]
