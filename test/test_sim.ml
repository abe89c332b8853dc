(* The simulation substrate: heap, clock, engine, metrics, trace. *)

module Heap = Dcp_sim.Heap
module Clock = Dcp_sim.Clock
module Engine = Dcp_sim.Engine
module Metrics = Dcp_sim.Metrics
module Trace = Dcp_sim.Trace

(* ---- Heap ---- *)

let test_heap_basics () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check (option int)) "empty" None (Heap.peek h);
  Heap.push h 5;
  Heap.push h 1;
  Heap.push h 3;
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop min" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop next" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "pop last" (Some 5) (Heap.pop h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h)

let heap_of_list l =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) l;
  h

let test_heap_sorts () =
  let h = heap_of_list [ 9; 2; 7; 2; 0; -3; 100; 55 ] in
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  Alcotest.(check (list int)) "drains sorted" [ -3; 0; 2; 2; 7; 9; 55; 100 ] (drain [])

let prop_heap_invariant =
  QCheck2.Test.make ~name:"heap invariant after pushes and pops" ~count:300
    QCheck2.Gen.(list (pair bool int))
    (fun ops ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter
        (fun (push, v) -> if push then Heap.push h v else ignore (Heap.pop h))
        ops;
      Heap.check_invariant h)

let prop_heap_sorted_drain =
  QCheck2.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = heap_of_list xs in
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort Int.compare xs)

(* ---- Clock ---- *)

let test_clock_units () =
  Alcotest.(check int) "us" 1_000 (Clock.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Clock.ms 1);
  Alcotest.(check int) "s" 1_000_000_000 (Clock.s 1);
  Alcotest.(check int) "of_float_s" 1_500_000_000 (Clock.of_float_s 1.5);
  Alcotest.(check (float 1e-9)) "to_float_ms" 1.5 (Clock.to_float_ms (Clock.us 1500))

let test_clock_pp () =
  let render t = Format.asprintf "%a" Clock.pp t in
  Alcotest.(check string) "ns" "500ns" (render 500);
  Alcotest.(check string) "us" "1.500us" (render 1500);
  Alcotest.(check string) "ms" "2.000ms" (render (Clock.ms 2));
  Alcotest.(check string) "s" "3.000s" (render (Clock.s 3))

(* ---- Engine ---- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule e ~at:(Clock.ms 5) (note "b"));
  ignore (Engine.schedule e ~at:(Clock.ms 1) (note "a"));
  ignore (Engine.schedule e ~at:(Clock.ms 9) (note "c"));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" (Clock.ms 9) (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~at:(Clock.ms 1) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "ties run in scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Engine.schedule e ~at:(Clock.ms 1) (fun () -> fired := true) in
  Engine.cancel t;
  Alcotest.(check int) "marked cancelled" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_engine_schedule_in_past_clamped () =
  let e = Engine.create () in
  let when_fired = ref (-1) in
  ignore
    (Engine.schedule e ~at:(Clock.ms 10) (fun () ->
         ignore (Engine.schedule e ~at:(Clock.ms 1) (fun () -> when_fired := Engine.now e))));
  Engine.run e;
  Alcotest.(check int) "clamped to now" (Clock.ms 10) !when_fired

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~at:(Clock.ms i) (fun () -> incr count))
  done;
  Engine.run_until e (Clock.ms 5);
  Alcotest.(check int) "only first five" 5 !count;
  Alcotest.(check int) "clock at limit" (Clock.ms 5) (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest run later" 10 !count

let test_engine_cascading () =
  (* Events scheduling events: a chain of N hops lands at t = N. *)
  let e = Engine.create () in
  let hops = ref 0 in
  let rec hop () =
    incr hops;
    if !hops < 100 then ignore (Engine.schedule_after e ~delay:(Clock.us 1) hop)
  in
  ignore (Engine.schedule_after e ~delay:(Clock.us 1) hop);
  Engine.run e;
  Alcotest.(check int) "all hops" 100 !hops;
  Alcotest.(check int) "time advanced linearly" (Clock.us 100) (Engine.now e);
  Alcotest.(check int) "events counted" 100 (Engine.events_executed e)

let test_engine_pending () =
  let e = Engine.create () in
  let t1 = Engine.schedule e ~at:(Clock.ms 1) (fun () -> ()) in
  ignore (Engine.schedule e ~at:(Clock.ms 2) (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Engine.cancel t1;
  Alcotest.(check int) "one after cancel" 1 (Engine.pending e)

(* ---- Metrics ---- *)

let test_metrics_counters () =
  let r = Metrics.registry () in
  let c = Metrics.counter r "hits" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 3;
  Alcotest.(check int) "count" 5 (Metrics.count c);
  Alcotest.(check int) "same name, same counter" 5 (Metrics.count (Metrics.counter r "hits"));
  Alcotest.(check (list (pair string int))) "report" [ ("hits", 5) ] (Metrics.counters r)

let test_metrics_gauges () =
  let r = Metrics.registry () in
  let g = Metrics.gauge r "depth" in
  Metrics.set_gauge g 2.5;
  Alcotest.(check (float 1e-9)) "gauge" 2.5 (Metrics.gauge_value g)

let test_metrics_histogram_quantiles () =
  let r = Metrics.registry () in
  let h = Metrics.histogram r "lat" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "samples" 1000 (Metrics.samples h);
  Alcotest.(check (float 1.0)) "mean" 500.5 (Metrics.mean h);
  let p50 = Metrics.quantile h 0.5 in
  Alcotest.(check bool) "p50 within 10%" true (Float.abs (p50 -. 500.0) < 50.0);
  let p99 = Metrics.quantile h 0.99 in
  Alcotest.(check bool) "p99 within 10%" true (Float.abs (p99 -. 990.0) < 99.0);
  (* the exact extremes show as the report's max and the clamped q=0 *)
  let report = Format.asprintf "%a" Metrics.pp_report r in
  Alcotest.(check bool) "max exact" true
    (let needle = "max=1000.00" and n = String.length report in
     let rec scan i =
       i + 11 <= n && (String.equal (String.sub report i 11) needle || scan (i + 1))
     in
     scan 0);
  Alcotest.(check (float 1e-9)) "min exact" 1.0 (Metrics.quantile h 0.0)

let test_metrics_histogram_empty () =
  let r = Metrics.registry () in
  let h = Metrics.histogram r "empty" in
  Alcotest.(check (float 1e-9)) "mean 0" 0.0 (Metrics.mean h);
  Alcotest.(check (float 1e-9)) "quantile 0" 0.0 (Metrics.quantile h 0.5)

let prop_histogram_quantile_monotone =
  QCheck2.Test.make ~name:"histogram quantiles are monotone" ~count:100
    QCheck2.Gen.(list_size (int_range 1 200) (float_range 0.1 1e6))
    (fun samples ->
      let r = Metrics.registry () in
      let h = Metrics.histogram r "x" in
      List.iter (Metrics.observe h) samples;
      let q1 = Metrics.quantile h 0.25
      and q2 = Metrics.quantile h 0.5
      and q3 = Metrics.quantile h 0.95 in
      q1 <= q2 && q2 <= q3)

(* ---- Trace ---- *)

(* A tiny event type standing in for a runtime's: rendered only on read. *)
type ev = Sent of string | Tick of int

let ev_category = function Sent _ -> "send" | Tick _ -> "tick"

let ev_detail fmt = function
  | Sent s -> Format.pp_print_string fmt s
  | Tick i -> Format.fprintf fmt "tick %d" i

let ticks ?capacity n =
  let t = Trace.create ?capacity ~category:ev_category ~detail:ev_detail () in
  for i = 1 to n do
    Trace.record t ~at:i (Tick i)
  done;
  t

let tick_ids t = List.map (function _, Tick i -> i | _, Sent _ -> -1) (Trace.events t)

let test_trace_records () =
  let t = Trace.create ~capacity:8 ~category:ev_category ~detail:ev_detail () in
  Trace.record t ~at:1 (Sent "hello");
  Trace.record t ~at:2 (Tick 7);
  Alcotest.(check int) "size" 2 (Trace.size t);
  (match Trace.events t with
  | [ (1, Sent "hello"); (2, Tick 7) ] -> ()
  | _ -> Alcotest.fail "expected the two typed events, oldest first");
  Alcotest.(check string) "rendered on read"
    (Format.asprintf "[%a] %-16s hello@.[%a] %-16s tick 7@." Clock.pp 1 "send" Clock.pp 2 "tick")
    (Format.asprintf "%a" Trace.pp t)

let test_trace_ring_overflow () =
  let t = ticks ~capacity:4 10 in
  Alcotest.(check int) "retains capacity" 4 (Trace.size t);
  Alcotest.(check int) "total counts all" 10 (Trace.total t);
  Alcotest.(check (list int)) "keeps newest" [ 7; 8; 9; 10 ] (tick_ids t)

let test_trace_find () =
  let t = Trace.create ~category:ev_category ~detail:ev_detail () in
  Trace.record t ~at:1 (Tick 1);
  Trace.record t ~at:2 (Sent "2");
  Trace.record t ~at:3 (Tick 3);
  Alcotest.(check (list int)) "category filter" [ 1; 3 ]
    (List.map fst (Trace.find t ~category:"tick"))

(* The ring starts at 64 slots and doubles: every count around the first
   chunk and the first doubling comes back whole and in order. *)
let test_trace_ring_growth () =
  List.iter
    (fun n ->
      let t = ticks n in
      Alcotest.(check int) (Printf.sprintf "size after %d" n) n (Trace.size t);
      Alcotest.(check int) (Printf.sprintf "total after %d" n) n (Trace.total t);
      Alcotest.(check (list int))
        (Printf.sprintf "order after %d" n)
        (List.init n succ) (tick_ids t))
    [ 63; 64; 65; 129 ]

(* Growth stops at a capacity that no doubling of 64 reaches exactly. *)
let test_trace_ring_wrap_odd_capacity () =
  let t = ticks ~capacity:100 250 in
  Alcotest.(check int) "size" 100 (Trace.size t);
  Alcotest.(check int) "total" 250 (Trace.total t);
  Alcotest.(check (list int)) "last 100, oldest first"
    (List.init 100 (fun i -> 151 + i))
    (tick_ids t)

let test_trace_ring_small_capacity () =
  let t = ticks ~capacity:4 3 in
  Alcotest.(check (list int)) "below capacity" [ 1; 2; 3 ] (tick_ids t);
  List.iter (fun i -> Trace.record t ~at:i (Tick i)) [ 4; 5 ];
  Alcotest.(check int) "size" 4 (Trace.size t);
  Alcotest.(check (list int)) "wrapped" [ 2; 3; 4; 5 ] (tick_ids t)

let tests =
  [
    Alcotest.test_case "heap basics" `Quick test_heap_basics;
    Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_invariant;
    QCheck_alcotest.to_alcotest prop_heap_sorted_drain;
    Alcotest.test_case "clock units" `Quick test_clock_units;
    Alcotest.test_case "clock pp" `Quick test_clock_pp;
    Alcotest.test_case "engine time order" `Quick test_engine_order;
    Alcotest.test_case "engine FIFO ties" `Quick test_engine_fifo_ties;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine past clamped" `Quick test_engine_schedule_in_past_clamped;
    Alcotest.test_case "engine run_until" `Quick test_engine_run_until;
    Alcotest.test_case "engine cascading events" `Quick test_engine_cascading;
    Alcotest.test_case "engine pending" `Quick test_engine_pending;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics gauges" `Quick test_metrics_gauges;
    Alcotest.test_case "histogram quantiles" `Quick test_metrics_histogram_quantiles;
    Alcotest.test_case "histogram empty" `Quick test_metrics_histogram_empty;
    QCheck_alcotest.to_alcotest prop_histogram_quantile_monotone;
    Alcotest.test_case "trace records" `Quick test_trace_records;
    Alcotest.test_case "trace ring overflow" `Quick test_trace_ring_overflow;
    Alcotest.test_case "trace find" `Quick test_trace_find;
    Alcotest.test_case "trace ring growth" `Quick test_trace_ring_growth;
    Alcotest.test_case "trace ring wrap at capacity 100" `Quick test_trace_ring_wrap_odd_capacity;
    Alcotest.test_case "trace ring capacity below first chunk" `Quick
      test_trace_ring_small_capacity;
  ]
