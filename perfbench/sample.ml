(* Sampled per-call layer costs for the traced run.

   Each timing calls one layer's public function on messages (or tables)
   the workload itself produced, in batches, and reports mean wall ns per
   call.  Every batch is also recorded as a span. *)

open Dcp_wire
module Message = Dcp_core.Message
module Codec = Dcp_wire.Codec
module Packet = Dcp_net.Packet
module Reconcile = Dcp_primitives.Reconcile
module Engine = Dcp_sim.Engine

let batch = 64
let batches = 5

(* A sampled message, with its target and its encoded body. *)
type item = { target : Port_name.t; msg : Message.t; body : string }

let item (target, msg) =
  match Codec.encode (Message.envelope ~target msg) with
  | Ok body -> { target; msg; body }
  | Error e -> failwith (Format.asprintf "sampled message does not encode: %a" Codec.pp_error e)

(* Median over [batches] of the mean wall ns per call of [f x]. *)
let one name f x =
  let runs =
    Array.init batches (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Spans.now_ns () in
        for _ = 1 to batch do
          ignore (Sys.opaque_identity (f x))
        done;
        let dur = Spans.now_ns () - t0 in
        Spans.record name ~dur ~words:(Gc.minor_words () -. w0);
        float_of_int dur /. float_of_int batch)
  in
  Array.sort Float.compare runs;
  runs.(batches / 2)

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Cost per call of [f] at a body size of [at] bytes: a least-squares line
   ns = a + b * bytes through the sampled items, so a mix of small client
   messages and large sync messages is costed at the run's own mean size.
   With one size only, the plain mean. *)
let per_call name items f ~at =
  match items with
  | [] -> 0.
  | _ ->
      let pts = List.map (fun it -> (float_of_int (String.length it.body), one name f it)) items in
      let mx = mean (List.map fst pts) and my = mean (List.map snd pts) in
      let sxx = List.fold_left (fun acc (x, _) -> acc +. ((x -. mx) *. (x -. mx))) 0. pts in
      let sxy = List.fold_left (fun acc (x, y) -> acc +. ((x -. mx) *. (y -. my))) 0. pts in
      if sxx < 1. then my
      else
        let fitted = my +. (sxy /. sxx *. (at -. mx)) in
        if fitted > 0. then fitted else my

let render it = Format.asprintf "%a" Message.pp it.msg
let encode it = Codec.encode (Message.envelope ~target:it.target it.msg)

let decode it =
  match Codec.decode it.body with Ok env -> Message.of_envelope env | Error _ -> Error "malformed"

let mtu = 1024

(* Fragment a body and reassemble it, as the network does end to end. *)
let fragment it =
  let r = Packet.Reassembly.create () in
  List.fold_left
    (fun acc frag ->
      match Packet.Reassembly.offer r ~now:0 frag with Some m -> Some m | None -> acc)
    None
    (Packet.fragment ~src:0 ~dst:1 ~msg_id:1 ~mtu it.body)

(* Digest messages a replica would send for [table], window by window
   under the byte budget. *)
let digests ~budget ~target table =
  let size e = Reconcile.value_size (Reconcile.entry_value e) in
  List.map
    (fun chunk ->
      let lo = match chunk with (k, _) :: _ -> k | [] -> "" in
      item
        ( target,
          Message.make ~reply_to:target ~sent_at:0 "sync_digest"
            [
              Value.str lo; Value.Option None; Value.list (List.map Reconcile.entry_value chunk);
            ] ))
    (Reconcile.chunks ~budget ~size table)

(* One engine event: schedule a no-op and run it. *)
let event_ns () =
  let n = 20_000 in
  let e = Engine.create () in
  let w0 = Gc.minor_words () in
  let t0 = Spans.now_ns () in
  for i = 1 to n do
    ignore (Engine.schedule e ~at:i ignore)
  done;
  Engine.run e;
  let dur = Spans.now_ns () - t0 in
  Spans.record "sample.sim.event" ~dur ~words:(Gc.minor_words () -. w0);
  float_of_int dur /. float_of_int n

let diff_ns tables =
  let pairs =
    match tables with
    | a :: rest -> List.filteri (fun i _ -> i < 8) (List.map (fun b -> (a, b)) rest)
    | [] -> []
  in
  match pairs with
  | [] -> 0.
  | _ ->
      let diff (claimed, held) = Reconcile.diff ~claimed ~held in
      mean (List.map (one "sample.reconcile.diff" diff) pairs)
