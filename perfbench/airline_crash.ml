(* airline_crash: the Figure-2 airline cluster under crash/restart churn,
   closed loop.

   3 regions (one node each) with a regional manager, its flights and a
   front desk, over Link.lan, on Disk.flaky stores that checkpoint every
   100 appends.  The benchmark adds its own §3.5 clerks, 4 per region on
   a terminal node of the region's own: each runs a seeded script of
   transactions — reserves, deferred cancels and undos with exponential
   think time — and retries idempotently until every request is answered.
   A clerk whose transaction vanished (its front desk's node crashed)
   starts a new transaction and re-issues the request, as the paper
   prescribes.  The benchmark owns the crash schedule over the region
   nodes, so it can time every restart_node. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock
module Link = Dcp_net.Link
module Rng = Dcp_rng.Rng
module Store = Dcp_stable.Store
module Regional = Dcp_airline.Regional
module Front_desk = Dcp_airline.Front_desk
module Topology = Dcp_net.Topology
module Oracle = Dcp_check.Oracle

let regions = 3
let clerks_per_region = 4
let requests_per_clerk = 600
let requests_per_transaction = 4
let flights = 6
let dates = 30
let capacity = 5
let waitlist = 10
let think = Clock.ms 5
let call_timeout = Clock.ms 100
let backoff = Clock.ms 20  (* mean pause before a retry, exponentially jittered *)
let max_tries = 200
let crash_gap = Clock.ms 200  (* mean time between crashes *)
let outage = Clock.ms 200

type request = Reserve of int * int | Cancel of int * int | Undo

let script rng =
  Array.init requests_per_clerk (fun _ ->
      let roll = Rng.float rng 1.0 in
      if roll < 0.1 then Undo
      else
        let flight = Rng.int rng flights and date = Rng.int rng dates in
        if roll < 0.75 then Reserve (flight, date) else Cancel (flight, date))

let valid_reply req cmd =
  match (req, cmd) with
  | Reserve _, ("ok" | "full" | "wait_list" | "pre_reserved") -> true
  | Cancel _, "deferred" -> true
  | Undo, ("undone" | "nothing_to_undo") -> true
  | _ -> false

(* Wall time of every Runtime.restart_node in this repetition. *)
let restart_ns : int list ref = ref []
let comm_failures = ref 0
let abandoned = ref 0

let setup ~seed ~rep () =
  restart_ns := [];
  comm_failures := 0;
  abandoned := 0;
  (* Cluster.build's layout — one node per region hosting its regional
     manager, that region's flights (flight f in region f mod regions) and
     a front desk — assembled here because Cluster.build always keeps the
     runtime's legacy crash_tear_p = 0.3.  That knob tears a store's last
     record on every third crash even when it was flushed, so a front desk
     whose only record is its configuration forgets it and self-destructs
     at recovery.  As in the check harness, disk damage comes only from the
     Disk.flaky injector here. *)
  let world =
    Runtime.create_world ~seed
      ~topology:(Topology.full_mesh ~n:(2 * regions) Link.lan)
      ~config:
        {
          Runtime.default_config with
          crash_tear_p = 0.0;
          disk = Some Dcp_stable.Disk.flaky;
          checkpoint_every = Some 100;
        }
      ()
  in
  Dcp_core.Primordial.install world;
  let regionals =
    List.init regions (fun r ->
        Regional.create world ~at:r
          ~flights:
            (List.filter_map
               (fun f -> if f mod regions = r then Some { Regional.flight = f; capacity } else None)
               (List.init flights Fun.id))
          ~waitlist_capacity:waitlist ())
  in
  let desks =
    Array.init regions (fun r ->
        Front_desk.create world ~at:r ~regionals ~request_timeout:(Clock.ms 50) ())
  in
  let nclerks = regions * clerks_per_region in
  let rng = Rng.create ~seed:(seed lxor 0x5bd1e995) in
  let scripts = Array.init nclerks (fun _ -> script rng) in
  let ops = Harness.make_ops ~rep (nclerks * requests_per_clerk) in
  (* One clerk's script.  Request ids are pinned
     (clerk, request, try) so message bytes repeat exactly. *)
  let clerk ctx c =
    let desk = desks.(c / clerks_per_region) in
    let rid i k = 2_000_000_000 + (c * 50_000_000) + (i * 64) + (k land 63) in
    let rng = Rng.create ~seed:((seed * 31) + c) in
    let pause mean =
      Runtime.sleep ctx (Clock.of_float_s (Rng.exponential rng ~mean:(Clock.to_float_s mean)))
    in
    let rec begin_tx i k =
      if k >= max_tries then None
      else
        match
          Harness.call ctx ~to_:desk ~timeout:call_timeout ~attempts:1 ~request_id:(rid i (32 + k))
            "begin_transaction" [ Value.str (Printf.sprintf "p%d.%d" c i) ]
        with
        | Rpc.Reply ("transaction", [ Value.Portv trans ]) -> Some trans
        | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout ->
            incr comm_failures;
            pause backoff;
            begin_tx i (k + 1)
    in
    let finish trans i =
      match
        Harness.call ctx ~to_:trans ~timeout:call_timeout ~attempts:3 ~request_id:(rid i 63)
          "finish" []
      with
      | Rpc.Reply ("finished", _) -> ()
      | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout -> incr abandoned
    in
    (* Run request [i] inside [trans], retrying until it is answered. *)
    let rec request trans i k =
      let op = (c * requests_per_clerk) + i in
      Harness.issue ops op ~at:(Runtime.ctx_now ctx);
      if k >= max_tries then begin
        Harness.complete ops op ~at:(Runtime.ctx_now ctx) `Failed;
        Some trans
      end
      else
        let cmd, args =
          match scripts.(c).(i) with
          | Reserve (f, d) -> ("reserve", [ Value.int f; Value.int d ])
          | Cancel (f, d) -> ("cancel", [ Value.int f; Value.int d ])
          | Undo -> ("undo", [])
        in
        Harness.sample (fun () ->
            ( trans,
              Dcp_core.Message.make ~reply_to:trans ~sent_at:(Runtime.ctx_now ctx) cmd
                (Value.int (rid i k) :: args) ));
        match
          Harness.call ctx ~to_:trans ~timeout:call_timeout ~attempts:1 ~request_id:(rid i k) cmd
            args
        with
        | Rpc.Reply (reply, _) when valid_reply scripts.(c).(i) reply ->
            Harness.complete ops op ~at:(Runtime.ctx_now ctx) `Ok;
            Some trans
        | Rpc.Reply ("failure", _) ->
            (* The front desk could not reach the flight's region: retry. *)
            incr comm_failures;
            pause backoff;
            request trans i (k + 1)
        | Rpc.Reply (reply, _) ->
            Harness.complete ops op ~at:(Runtime.ctx_now ctx)
              (`Wrong (Printf.sprintf "%s answered %s" cmd reply));
            Some trans
        | Rpc.Failure_msg _ | Rpc.Timeout -> (
            (* The transaction vanished with its node: start a new one. *)
            incr comm_failures;
            incr abandoned;
            match begin_tx i k with
            | Some trans -> request trans i (k + 1)
            | None ->
                Harness.complete ops op ~at:(Runtime.ctx_now ctx) `Failed;
                None)
    in
    let rec run_from i =
      if i < requests_per_clerk then
        match begin_tx i 0 with
        | None ->
            for j = i to requests_per_clerk - 1 do
              Harness.complete ops ((c * requests_per_clerk) + j) ~at:(Runtime.ctx_now ctx) `Failed
            done
        | Some trans ->
            let stop =
              Int.min requests_per_clerk
                (((i / requests_per_transaction) + 1) * requests_per_transaction)
            in
            let rec go trans i =
              if i >= stop then (finish trans i; run_from i)
              else begin
                pause think;
                match request trans i 0 with Some trans -> go trans (i + 1) | None -> ()
              end
            in
            go trans i
    in
    run_from 0
  in
  Runtime.register_def world
    {
      Runtime.def_name = "bench_clerk";
      provides = [];
      init =
        (fun ctx args ->
          match args with
          | [ Value.Int c ] -> clerk ctx c
          | _ -> invalid_arg "bench clerk: expected [clerk]");
      recover = None;
    };
  for c = 0 to nclerks - 1 do
    ignore
      (Runtime.create_guardian world ~at:(regions + (c / clerks_per_region)) ~def_name:"bench_clerk"
         ~args:[ Value.int c ])
  done;
  (* The crash schedule: one node down at a time, each for [outage]. *)
  let crash_rng = Rng.create ~seed:(seed lxor 0x2545F4914F6CDD1D) in
  let horizon = Clock.s 30 in
  let rec plan at =
    let at = at + Clock.of_float_s (Rng.exponential crash_rng ~mean:(Clock.to_float_s crash_gap)) in
    if at < horizon then begin
      let node = Rng.int crash_rng regions in
      Runtime.schedule_at world ~node ~at (fun () ->
          Spans.enter "stable.crash";
          Runtime.crash_node world node;
          Spans.leave ());
      Runtime.schedule_at world ~node ~at:(at + outage) (fun () ->
          Spans.enter "stable.restart";
          let t0 = Spans.now_ns () in
          Runtime.restart_node world node;
          restart_ns := (Spans.now_ns () - t0) :: !restart_ns;
          Spans.leave ());
      plan (at + outage)
    end
  in
  plan Clock.zero;
  let all_up () = List.for_all (Runtime.node_up world) (List.init regions Fun.id) in
  let stores () =
    List.concat_map
      (fun n -> List.map Runtime.guardian_store (Runtime.guardians_at world n))
      (List.init regions Fun.id)
  in
  {
    Harness.world;
    ops;
    slice = Clock.ms 10;
    limit = Clock.s 600;
    settle =
      (fun () ->
        ignore (Harness.run_until world ~slice:(Clock.ms 10) ~limit:(Clock.s 10) all_up);
        Float.nan);
    check =
      (fun () ->
        if not (all_up ()) then Error "a node is still down after the run"
        else
          Harness.oracles
            [
              Oracle.airline_seat_ledger ~capacity ~waitlist_capacity:waitlist;
              Oracle.stable_durability;
            ]
            world);
    extra =
      (fun () ->
        let ss = stores () in
        let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 ss) in
        let sorted = List.sort Int.compare !restart_ns |> Array.of_list in
        let n = Array.length sorted in
        [
          ("stable.restarts", float_of_int n);
          ("stable.restart_ns_p50", if n = 0 then 0. else float_of_int sorted.((n - 1) / 2));
          ("stable.restart_ns_max", if n = 0 then 0. else float_of_int sorted.(n - 1));
          ("stable.log_records", sum Store.log_length);
          ("stable.checkpoints", sum Store.checkpoint_count);
          ("airline.requests_failed", float_of_int !comm_failures);
          ("airline.tx_abandoned", float_of_int !abandoned);
        ]);
  }

let run ~seed ~rep = Harness.measure (setup ~seed ~rep)
