(* What every workload shares: the client-op table, the sliced simulation
   loop, oracle calls, counter windows and the record of one repetition. *)

open Dcp_wire
module Runtime = Dcp_core.Runtime
module Message = Dcp_core.Message
module Metrics = Dcp_sim.Metrics
module Trace = Dcp_sim.Trace
module Clock = Dcp_sim.Clock
module Network = Dcp_net.Network
module Oracle = Dcp_check.Oracle
module Rpc = Dcp_primitives.Rpc

let now_ns = Spans.now_ns

(* ---- client ops ---- *)

(* One repetition's client ops.  [due] is the virtual time an op was due
   (open loop) or first issued (closed loop); latency runs from there to
   [fin], so retries, crashes and a late generator all count against it. *)
type ops = {
  base : int;  (** added to op indices so span ids stay unique across repetitions *)
  due : int array;
  fin : int array;
  lost : Bytes.t;  (** 'x' for an op that failed or got a wrong answer *)
  mutable completed : int;
  mutable failed : int;
  mutable wrong : string option;  (** the first wrong answer seen *)
}

let make_ops ~rep n =
  {
    base = rep * 10_000_000;
    due = Array.make n (-1);
    fin = Array.make n (-1);
    lost = Bytes.make n ' ';
    completed = 0;
    failed = 0;
    wrong = None;
  }

let count ops = Array.length ops.due
let all_done ops = ops.completed = count ops

(* The first issue of op [i]; later re-issues (retries after a crash) keep
   the original start. *)
let issue ops i ~at =
  if ops.due.(i) < 0 then begin
    ops.due.(i) <- at;
    Spans.op_begin (ops.base + i)
  end

let complete ops i ~at outcome =
  if ops.fin.(i) < 0 then begin
    issue ops i ~at;
    ops.fin.(i) <- at;
    ops.completed <- ops.completed + 1;
    (match outcome with
    | `Ok -> ()
    | `Failed ->
        ops.failed <- ops.failed + 1;
        Bytes.set ops.lost i 'x'
    | `Wrong why ->
        ops.failed <- ops.failed + 1;
        Bytes.set ops.lost i 'x';
        if ops.wrong = None then ops.wrong <- Some (Printf.sprintf "op %d: %s" i why));
    Spans.op_end (ops.base + i) ~vt0:ops.due.(i) ~vt1:at
  end

(* Virtual latencies in ms, sorted; failed or unfinished ops count as
   infinitely late. *)
let latencies ops =
  let lat =
    Array.init (count ops) (fun i ->
        if ops.fin.(i) < 0 || Bytes.get ops.lost i = 'x' then Float.infinity
        else Clock.to_float_ms (ops.fin.(i) - ops.due.(i)))
  in
  Array.sort Float.compare lat;
  lat

(* Nearest-rank percentile, and how many samples lie beyond it. *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = Int.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  (sorted.(rank - 1), n - rank)

(* ---- the simulation loop ---- *)

let sim_ns = ref 0
let sim_events = ref 0

let run_slice w slice =
  Spans.enter "sim.run";
  let e0 = Runtime.events_executed w in
  let t0 = now_ns () in
  Runtime.run_for w slice;
  sim_ns := !sim_ns + (now_ns () - t0);
  sim_events := !sim_events + (Runtime.events_executed w - e0);
  Spans.leave ()

(* Run [slice]-long steps until [stop ()] holds or [limit] of virtual time
   has passed; returns whether [stop] held. *)
let run_until w ~slice ~limit stop =
  let deadline = Runtime.now w + limit in
  while (not (stop ())) && Runtime.now w < deadline do
    run_slice w slice
  done;
  stop ()

(* ---- client calls ---- *)

let rpc_timeouts = ref 0
let rpc_failures = ref 0

(* Rpc.call, one try at a time, so the benchmark can count the tries that
   time out or draw a failure message.  Every try reuses the pinned
   request id. *)
let call ctx ~to_ ~timeout ~attempts ~request_id cmd args =
  let rec go k =
    match Rpc.call ctx ~to_ ~timeout ~request_id cmd args with
    | Rpc.Reply _ as r -> r
    | (Rpc.Failure_msg _ | Rpc.Timeout) as r ->
        (match r with Rpc.Timeout -> incr rpc_timeouts | _ -> incr rpc_failures);
        if k + 1 < attempts then go (k + 1) else r
  in
  go 0

(* ---- oracles ---- *)

let oracle_calls = ref 0
let oracle_ns = ref 0

let oracle (o : Oracle.t) w =
  Spans.enter "check.oracle";
  let t0 = now_ns () in
  let r = o.Oracle.check w in
  oracle_ns := !oracle_ns + (now_ns () - t0);
  incr oracle_calls;
  Spans.leave ();
  Result.map_error (fun why -> o.Oracle.name ^ ": " ^ why) r

let oracles os w =
  List.fold_left (fun acc o -> match acc with Error _ -> acc | Ok () -> oracle o w) (Ok ()) os

(* ---- counter windows ---- *)

type snap = {
  s_counters : (string * int) list;
  s_net : Network.stats;
  s_events : int;
  s_trace : int;
}

let snap w =
  {
    s_counters = Metrics.counters (Runtime.metrics w);
    s_net = Runtime.network_stats w;
    s_events = Runtime.events_executed w;
    s_trace = Trace.total (Runtime.trace w);
  }

let net_diff (b : Network.stats) (a : Network.stats) =
  {
    Network.messages_sent = b.messages_sent - a.messages_sent;
    messages_delivered = b.messages_delivered - a.messages_delivered;
    fragments_sent = b.fragments_sent - a.fragments_sent;
    fragments_lost = b.fragments_lost - a.fragments_lost;
    fragments_corrupted = b.fragments_corrupted - a.fragments_corrupted;
    fragments_duplicated = b.fragments_duplicated - a.fragments_duplicated;
    partition_drops = b.partition_drops - a.partition_drops;
    bytes_sent = b.bytes_sent - a.bytes_sent;
  }

let counters_diff later earlier =
  List.map
    (fun (name, v) -> (name, v - Option.value (List.assoc_opt name earlier) ~default:0))
    later

(* ---- one repetition ---- *)

type rep = {
  setup_ns : int;
  run_ns : int;  (** first op due until the last op completed *)
  settle_ns : int;  (** running on to quiescence: convergence, restarts *)
  verify_ns : int;  (** oracles and read-back *)
  attempted : int;
  failed : int;
  check : (unit, string) result;
  vlat_p50_ms : float;
  vlat_p99_ms : float;
  beyond_p99 : int;  (** samples beyond the p99 *)
  counters : (string * int) list;  (** metric deltas over the op window *)
  net : Network.stats;
  events : int;
  trace_records : int;
  alloc_words : float;  (** minor words while the ops ran *)
  converge_vms : float;  (** nan where it does not apply *)
  sim_ns : int;
  sim_events : int;
  oracle_calls : int;
  oracle_ns : int;
  settle_oracle_ns : int;  (** oracle time spent inside the counter window *)
  rpc_timeouts : int;  (** client tries that timed out *)
  rpc_failures : int;  (** client tries answered by failure(...) *)
  extra : (string * float) list;  (** workload-specific layer counts *)
}

let counter rep name = Option.value (List.assoc_opt name rep.counters) ~default:0

(* A workload instance after set-up.  [settle] runs once every op has
   completed and ends the counter window (it returns the convergence time,
   or nan); [check] is the correctness verdict; [extra] reads workload
   counters at the end. *)
type instance = {
  world : Runtime.world;
  ops : ops;
  slice : Clock.time;
  limit : Clock.time;
  settle : unit -> float;
  check : unit -> (unit, string) result;
  extra : unit -> (string * float) list;
}

let measure (setup : unit -> instance) =
  sim_ns := 0;
  sim_events := 0;
  oracle_calls := 0;
  oracle_ns := 0;
  Gc.full_major ();
  Spans.enter "setup";
  let t0 = now_ns () in
  let inst = setup () in
  let t1 = now_ns () in
  Spans.leave ();
  let w = inst.world in
  sim_ns := 0;
  sim_events := 0;
  rpc_timeouts := 0;
  rpc_failures := 0;
  let before = snap w in
  let words0 = Gc.minor_words () in
  let finished = run_until w ~slice:inst.slice ~limit:inst.limit (fun () -> all_done inst.ops) in
  let words1 = Gc.minor_words () in
  let t2 = now_ns () in
  let converge_vms = inst.settle () in
  let after = snap w in
  let t3 = now_ns () in
  let settle_oracle_ns = !oracle_ns in
  Spans.enter "verify";
  let check =
    if not finished then
      Error (Printf.sprintf "%d of %d ops still pending after the virtual-time limit"
               (count inst.ops - inst.ops.completed) (count inst.ops))
    else
      match inst.ops.wrong with
      | Some why -> Error ("wrong answer: " ^ why)
      | None -> inst.check ()
  in
  let t4 = now_ns () in
  Spans.leave ();
  Spans.reset_ops ();
  let ops = inst.ops in
  let lat = latencies ops in
  {
    setup_ns = t1 - t0;
    run_ns = t2 - t1;
    settle_ns = t3 - t2;
    verify_ns = t4 - t3;
    attempted = count ops;
    failed = ops.failed + (count ops - ops.completed);
    check;
    vlat_p50_ms = fst (percentile lat 0.5);
    vlat_p99_ms = fst (percentile lat 0.99);
    beyond_p99 = snd (percentile lat 0.99);
    counters = counters_diff after.s_counters before.s_counters;
    net = net_diff after.s_net before.s_net;
    events = after.s_events - before.s_events;
    trace_records = after.s_trace - before.s_trace;
    alloc_words = words1 -. words0;
    converge_vms;
    sim_ns = !sim_ns;
    sim_events = !sim_events;
    oracle_calls = !oracle_calls;
    oracle_ns = !oracle_ns;
    settle_oracle_ns;
    rpc_timeouts = !rpc_timeouts;
    rpc_failures = !rpc_failures;
    extra = inst.extra ();
  }

(* ---- message samples for the per-call layer timings ---- *)

(* Messages the workload really sent, with their targets, kept for the
   sampled codec/trace/fragment timings of the traced run. *)
let samples : (Port_name.t * Message.t) list ref = ref []
let sample_count = ref 0
let sample_limit = 256

let sample make =
  if Spans.enabled () && !sample_count < sample_limit then begin
    incr sample_count;
    samples := make () :: !samples
  end
