(* replica_gossip: 32 anti-entropy replicas, open loop in virtual time.

   Replica.create_group puts one replica on each of nodes 0..31, with
   fanout 2 and a 2048-byte sync budget, so sync messages span 1-3
   fragments at the 1024-byte MTU.  Every link is Link.wan with 5% loss.
   Independent clients on node 32 arrive on a seeded Poisson schedule;
   every seventh is a write, each goes to a random replica.  After
   the last op completes, virtual time is stepped until every live table
   is equal; then every written key is read back and must hold the value
   of its last-writer-wins winner. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Rpc = Dcp_primitives.Rpc
module Replica = Dcp_primitives.Replica
module Reconcile = Dcp_primitives.Reconcile
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link
module Rng = Dcp_rng.Rng
module Oracle = Dcp_check.Oracle

let replicas = 32
let ops_per_rep = 2000
let rate_per_s = 400.
let write_every = 7  (* op i is a write when i mod 7 = 0: one write per six reads *)
let budget = 2048
let link = { Link.wan with Link.loss = 0.05 }
let call_timeout = Clock.ms 300
let attempts = 8
let probe_step = Clock.ms 20

(* Written values are (op index, 1200 bytes of padding): a write request
   and a read reply carrying one span two fragments. *)
let value i = Value.tuple [ Value.int i; Value.str (String.make 1200 'v') ]

(* The w-th write goes to key w/2: every key is written exactly twice, so
   the table size is fixed and last-writer-wins has something to decide. *)
let key_of_write w = Printf.sprintf "key%04d" (w / 2)

(* The last replica tables seen, for the sampled reconcile timings. *)
let last_tables : (string * Reconcile.stamp) list list ref = ref []

type kind = Write of string * int | Read of string

let setup ~seed ~rep () =
  let world =
    Runtime.create_world ~seed ~topology:(Topology.full_mesh ~n:(replicas + 1) link) ()
  in
  let nodes = List.init replicas Fun.id in
  let ports =
    Array.of_list
      (Replica.create_group world ~nodes ~sync_every:(Clock.ms 250) ~fanout:2
         ~byte_budget:budget ())
  in
  let guardians = Runtime.find_guardians world ~def_name:Replica.def_name in
  let joined () =
    List.for_all
      (fun g -> List.length (Replica.peers_in_store (Runtime.guardian_store g)) = replicas - 1)
      guardians
  in
  if not (Harness.run_until world ~slice:(Clock.ms 100) ~limit:(Clock.s 120) joined) then
    failwith "replica_gossip: the join handshake did not finish";
  (* The op schedule, all drawn from the seed before the first op is due. *)
  let rng = Rng.create ~seed:(seed lxor 0x9E3779B9) in
  let start = Runtime.now world in
  let due = Array.make ops_per_rep 0 in
  let kinds = Array.make ops_per_rep (Read "") in
  let values = Array.make ops_per_rep Value.unit in
  let target = Array.make ops_per_rep 0 in
  let nwritten = ref 0 in
  let t = ref (float_of_int start) in
  for i = 0 to ops_per_rep - 1 do
    t := !t +. (1e9 *. Rng.exponential rng ~mean:(1. /. rate_per_s));
    due.(i) <- int_of_float !t;
    target.(i) <- Rng.int rng replicas;
    kinds.(i) <-
      (if i mod write_every = 0 then begin
         let key = key_of_write !nwritten in
         incr nwritten;
         values.(i) <- value i;
         Write (key, i)
       end
       else Read (key_of_write (Rng.int rng !nwritten)))
  done;
  let ops = Harness.make_ops ~rep ops_per_rep in
  let stamps = Array.make ops_per_rep None in
  let op ctx i =
    Harness.issue ops i ~at:due.(i);
    let cmd, args =
      match kinds.(i) with
      | Write (key, _) -> ("write", [ Value.str key; values.(i) ])
      | Read key -> ("read", [ Value.str key ])
    in
    let rid = 3_500_000_000 + i in
    Harness.sample (fun () ->
        ( ports.(target.(i)),
          Dcp_core.Message.make ~reply_to:ports.(target.(i)) ~sent_at:due.(i) cmd
            (Value.int rid :: args) ));
    let outcome =
      match
        (kinds.(i),
         Harness.call ctx ~to_:ports.(target.(i)) ~timeout:call_timeout ~attempts ~request_id:rid
           cmd args )
      with
      | Write _, Rpc.Reply ("written", [ stamp ]) -> (
          match Reconcile.stamp_of_value stamp with
          | Some s ->
              stamps.(i) <- Some s;
              `Ok
          | None -> `Wrong "write acknowledged with a malformed stamp")
      | Read _, Rpc.Reply ("unknown_key", []) -> `Ok
      | Read key, Rpc.Reply ("value", [ Value.Tuple (Value.Int j :: _); _ ]) -> (
          (* A read may be stale, never invented: it must return a value
             some write to this key stored. *)
          match if j >= 0 && j < ops_per_rep then kinds.(j) else Read "" with
          | Write (k, _) when String.equal k key -> `Ok
          | _ -> `Wrong (Printf.sprintf "read %s returned a value never written there" key))
      | _, Rpc.Reply (reply, _) -> `Wrong ("unexpected reply " ^ reply)
      | _, (Rpc.Failure_msg _ | Rpc.Timeout) -> `Failed
    in
    Harness.complete ops i ~at:(Runtime.ctx_now ctx) outcome
  in
  Runtime.register_def world
    {
      Runtime.def_name = "bench_gossip_clients";
      provides = [];
      init =
        (fun ctx _ ->
          (* Each arrival is its own process: an open loop. *)
          Array.iteri
            (fun i at ->
              let wait = at - Runtime.ctx_now ctx in
              if wait > 0 then Runtime.sleep ctx wait;
              ignore (Runtime.spawn ctx ~name:"client" (fun () -> op ctx i)))
            due);
      recover = None;
    };
  ignore (Runtime.create_guardian world ~at:replicas ~def_name:"bench_gossip_clients" ~args:[]);
  (* Final expectation per key: the acknowledged write with the largest stamp. *)
  let winners () =
    let tbl = Hashtbl.create 256 in
    Array.iteri
      (fun i k ->
        match (k, stamps.(i)) with
        | Write (key, v), Some s -> (
            match Hashtbl.find_opt tbl key with
            | Some (s', _) when Reconcile.stamp_compare s' s >= 0 -> ()
            | _ -> Hashtbl.replace tbl key (s, v))
        | _ -> ())
      kinds;
    Hashtbl.fold (fun key w acc -> (key, w) :: acc) tbl [] |> List.sort compare
  in
  (* Read every winning key back at every replica, through a client on
     the replica's own node. *)
  let read_back () =
    let expected = Array.of_list (winners ()) in
    let nkeys = Array.length expected in
    let results = Array.make (replicas * nkeys) None in
    let pending = ref replicas in
    Runtime.register_def world
      {
        Runtime.def_name = "bench_gossip_readback";
        provides = [];
        init =
          (fun ctx args ->
            let r = match args with [ Value.Int r ] -> r | _ -> invalid_arg "readback" in
            Array.iteri
              (fun j (key, _) ->
                results.((r * nkeys) + j) <-
                  Some
                    (Harness.call ctx ~to_:ports.(r) ~timeout:call_timeout ~attempts
                       ~request_id:(3_400_000_000 + (r * nkeys) + j) "read" [ Value.str key ]))
              expected;
            decr pending);
        recover = None;
      };
    for r = 0 to replicas - 1 do
      ignore
        (Runtime.create_guardian world ~at:r ~def_name:"bench_gossip_readback"
           ~args:[ Value.int r ])
    done;
    let finished () = !pending = 0 in
    if not (Harness.run_until world ~slice:(Clock.ms 50) ~limit:(Clock.s 60) finished) then
      Error "read-back did not finish"
    else
      let rec scan i =
        if i = Array.length results then Ok ()
        else
          let key, (stamp, v) = expected.(i mod nkeys) in
          match results.(i) with
          | Some (Rpc.Reply ("value", [ Value.Tuple (Value.Int got :: _); s ])) -> (
              match Reconcile.stamp_of_value s with
              | Some s
                when (s = stamp && got = v)
                     || Reconcile.stamp_compare s stamp > 0
                        && got >= 0 && got < ops_per_rep
                        && kinds.(got) = Write (key, got) ->
                  (* A larger stamp than any acknowledgement can only come
                     from a retried copy of a write to this key. *)
                  scan (i + 1)
              | _ ->
                  Error
                    (Printf.sprintf "read-back of %s at replica %d: got write %d, expected write %d"
                       key (i / nkeys) got v))
          | _ -> Error (Printf.sprintf "read-back of %s at replica %d got no value" key (i / nkeys))
      in
      scan 0
  in
  let tables () =
    List.map (fun g -> Replica.table_in_store (Runtime.guardian_store g)) guardians
  in
  let settle () =
    let last_write =
      Array.fold_left max 0
        (Array.mapi (fun i k -> match k with Write _ -> ops.Harness.fin.(i) | Read _ -> 0) kinds)
    in
    let converged () = Result.is_ok (Harness.oracle Oracle.replica_convergence world) in
    if Harness.run_until world ~slice:probe_step ~limit:(Clock.s 300) converged then
      Clock.to_float_ms (Runtime.now world - last_write)
    else Float.nan
  in
  {
    Harness.world;
    ops;
    slice = Clock.ms 20;
    limit = Clock.s 600;
    settle;
    check =
      (fun () ->
        let ( let* ) = Result.bind in
        let* () =
          Harness.oracles
            [
              Oracle.replica_convergence;
              Oracle.replica_sync_budget ~budget;
              Oracle.stable_durability;
            ]
            world
        in
        read_back ());
    extra =
      (fun () ->
        last_tables := tables ();
        []);
  }

let run ~seed ~rep = Harness.measure (setup ~seed ~rep)
