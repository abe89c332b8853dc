open Dcp_wire
module Runtime = Dcp_core.Runtime
module Rpc = Dcp_primitives.Rpc
module Clock = Dcp_sim.Clock
module Metrics = Dcp_sim.Metrics
module Rng = Dcp_rng.Rng

type config = {
  transactions : int;
  requests_per_transaction : int;
  think_time : Clock.time;
  dates : int;
  reserve_fraction : float;
  undo_fraction : float;
  request_timeout : Clock.time;
  attempts : int;
}

let default_config =
  {
    transactions = 10;
    requests_per_transaction = 5;
    think_time = Clock.ms 10;
    dates = 30;
    reserve_fraction = 0.8;
    undo_fraction = 0.05;
    request_timeout = Clock.ms 500;
    attempts = 3;
  }

let count world name = Metrics.incr (Metrics.counter (Runtime.metrics world) name)

let observe_latency world ~started ctx =
  let elapsed = Clock.diff (Runtime.ctx_now ctx) started in
  Metrics.observe
    (Metrics.histogram (Runtime.metrics world) "clerk.request.latency_us")
    (Clock.to_float_us elapsed)

let think ctx rng config =
  if config.think_time > 0 then
    Runtime.sleep ctx (Clock.of_float_s (Rng.exponential rng ~mean:(Clock.to_float_s config.think_time)))

(* One transaction session; returns [true] if it ran to a clean finish. *)
let run_session ctx world rng config ~pick_flight ~front_desk ~passenger =
  match
    Rpc.call ctx ~to_:front_desk ~timeout:config.request_timeout ~attempts:config.attempts
      "begin_transaction" [ Value.str passenger ]
  with
  | Rpc.Timeout | Rpc.Failure_msg _ ->
      count world "clerk.begin.failed";
      false
  | Rpc.Reply ("transaction", [ Value.Portv trans ]) ->
      let alive = ref true in
      let request () =
        let started = Runtime.ctx_now ctx in
        let outcome =
          if Rng.bernoulli rng config.reserve_fraction then
            Rpc.call ctx ~to_:trans ~timeout:config.request_timeout ~attempts:config.attempts
              "reserve"
              [ Value.int (pick_flight rng); Value.int (Rng.int rng config.dates) ]
          else
            Rpc.call ctx ~to_:trans ~timeout:config.request_timeout ~attempts:config.attempts
              "cancel"
              [ Value.int (pick_flight rng); Value.int (Rng.int rng config.dates) ]
        in
        observe_latency world ~started ctx;
        (match outcome with
        | Rpc.Reply ("ok", _) -> count world "clerk.reserve.ok"
        | Rpc.Reply ("full", _) -> count world "clerk.reserve.full"
        | Rpc.Reply ("wait_list", _) -> count world "clerk.reserve.wait_list"
        | Rpc.Reply ("pre_reserved", _) -> count world "clerk.reserve.pre_reserved"
        | Rpc.Reply ("deferred", _) -> count world "clerk.cancel.deferred"
        | Rpc.Reply _ -> count world "clerk.request.other"
        | Rpc.Failure_msg _ | Rpc.Timeout ->
            count world "clerk.request.failed";
            alive := false);
        if !alive && Rng.bernoulli rng config.undo_fraction then begin
          match
            Rpc.call ctx ~to_:trans ~timeout:config.request_timeout ~attempts:config.attempts
              "undo" []
          with
          | Rpc.Reply _ -> count world "clerk.undo"
          | Rpc.Failure_msg _ | Rpc.Timeout ->
              count world "clerk.request.failed";
              alive := false
        end
      in
      let rec requests n = if n > 0 && !alive then (think ctx rng config; request (); requests (n - 1)) in
      requests config.requests_per_transaction;
      if !alive then begin
        match
          Rpc.call ctx ~to_:trans ~timeout:config.request_timeout ~attempts:config.attempts
            "finish" []
        with
        | Rpc.Reply ("finished", _) ->
            count world "clerk.txn.completed";
            true
        | Rpc.Reply _ | Rpc.Failure_msg _ | Rpc.Timeout ->
            count world "clerk.txn.abandoned";
            false
      end
      else begin
        (* The transaction (or its node) died mid-conversation: forget it
           and let the caller start a fresh one — the paper's recovery
           story for clerks. *)
        count world "clerk.txn.abandoned";
        false
      end
  | Rpc.Reply _ ->
      count world "clerk.begin.failed";
      false

let clerk_body world config ~pick_flight rng ctx args =
  match args with
  | [ Value.Portv front_desk ] ->
      let clerk_tag = Runtime.guardian_id (Runtime.ctx_guardian ctx) in
      let rec sessions n =
        if config.transactions = 0 || n < config.transactions then begin
          let passenger = Printf.sprintf "p%d.%d" clerk_tag n in
          ignore (run_session ctx world rng config ~pick_flight ~front_desk ~passenger);
          sessions (n + 1)
        end
      in
      sessions 0
  | _ -> invalid_arg "clerk guardian: expected [front_desk_port]"

let install world ~name ~pick_flight config =
  let def : Runtime.def =
    {
      Runtime.def_name = name;
      provides = [];
      init =
        (fun ctx args ->
          (* Each clerk instance gets an independent random stream. *)
          let rng = Rng.split (Runtime.world_rng world) in
          clerk_body world config ~pick_flight rng ctx args);
      recover = None;
    }
  in
  Runtime.register_def world def

let create_clerk world ~at ~name ~front_desk =
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[ Value.port front_desk ])

type totals = {
  reserves_ok : int;
  reserves_full : int;
  reserves_waitlisted : int;
  reserves_pre_reserved : int;
  cancels_deferred : int;
  undos : int;
  request_failures : int;
  transactions_completed : int;
  transactions_abandoned : int;
}

let totals world =
  let counters = Metrics.counters (Runtime.metrics world) in
  let get name = Option.value (List.assoc_opt name counters) ~default:0 in
  {
    reserves_ok = get "clerk.reserve.ok";
    reserves_full = get "clerk.reserve.full";
    reserves_waitlisted = get "clerk.reserve.wait_list";
    reserves_pre_reserved = get "clerk.reserve.pre_reserved";
    cancels_deferred = get "clerk.cancel.deferred";
    undos = get "clerk.undo";
    request_failures = get "clerk.request.failed";
    transactions_completed = get "clerk.txn.completed";
    transactions_abandoned = get "clerk.txn.abandoned";
  }
