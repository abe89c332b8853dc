(* Node processors: the semaphore and the compute primitive, §1's
   Advantage 1 (contention) made measurable. *)

module Runtime = Dcp_core.Runtime
module Sync = Dcp_core.Sync
module Process = Dcp_core.Process
module Engine = Dcp_sim.Engine
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

(* ---- semaphore ---- *)

let test_semaphore_counts () =
  let e = Engine.create () in
  let s = Sync.semaphore e 2 in
  Alcotest.(check int) "both free" 2 (Sync.available s);
  let finished = ref [] in
  for i = 1 to 4 do
    ignore
      (Process.spawn e ~name:(string_of_int i) (fun () ->
           Sync.acquire s;
           Process.sleep e (Clock.ms 10);
           finished := (i, Engine.now e) :: !finished;
           Sync.release s))
  done;
  Engine.run e;
  (* 4 jobs, 2 units, 10ms each: two waves, finishing at 10 and 20. *)
  let times = List.sort compare (List.map snd !finished) in
  Alcotest.(check (list int)) "two waves" [ Clock.ms 10; Clock.ms 10; Clock.ms 20; Clock.ms 20 ] times;
  Alcotest.(check int) "all free after" 2 (Sync.available s)

let test_semaphore_release_over () =
  let e = Engine.create () in
  let s = Sync.semaphore e 1 in
  Alcotest.check_raises "over-release" (Invalid_argument "Sync.release: all units already free")
    (fun () -> Sync.release s)

let test_semaphore_needs_positive () =
  let e = Engine.create () in
  Alcotest.check_raises "zero units" (Invalid_argument "Sync.semaphore: need at least one unit")
    (fun () -> ignore (Sync.semaphore e 0))

(* ---- compute contention ---- *)

let make_world ~processors =
  let config = { Runtime.default_config with processors_per_node = processors } in
  Runtime.create_world ~seed:91 ~topology:(Topology.full_mesh ~n:2 Link.perfect) ~config ()

let fresh_name =
  let i = ref 0 in
  fun () ->
    incr i;
    Printf.sprintf "compute_%d" !i

let guardian world ~at body =
  let name = fresh_name () in
  let def =
    { Runtime.def_name = name; provides = []; init = (fun ctx _ -> body ctx); recover = None }
  in
  Runtime.register_def world def;
  ignore (Runtime.create_guardian world ~at ~def_name:name ~args:[])

(* [jobs] parallel 10ms computations on a node with [processors] CPUs:
   makespan = ceil(jobs/processors) * 10ms. *)
let makespan ~processors ~jobs =
  let world = make_world ~processors in
  let done_count = ref 0 and finish = ref 0 in
  for _ = 1 to jobs do
    guardian world ~at:0 (fun ctx ->
        Runtime.compute ctx (Clock.ms 10);
        incr done_count;
        if !done_count = jobs then finish := Runtime.now world)
  done;
  Runtime.run_for world (Clock.s 10);
  Alcotest.(check int) "all ran" jobs !done_count;
  !finish

let test_compute_parallel_within_limit () =
  Alcotest.(check int) "4 jobs, 4 cpus: one wave" (Clock.ms 10) (makespan ~processors:4 ~jobs:4)

let test_compute_queues_beyond_limit () =
  Alcotest.(check int) "8 jobs, 2 cpus: four waves" (Clock.ms 40) (makespan ~processors:2 ~jobs:8)

let test_compute_single_processor_serializes () =
  Alcotest.(check int) "3 jobs, 1 cpu" (Clock.ms 30) (makespan ~processors:1 ~jobs:3)

let test_sleep_does_not_use_cpu () =
  (* Sleeps overlap freely even on a single processor. *)
  let world = make_world ~processors:1 in
  let done_count = ref 0 and finish = ref 0 in
  for _ = 1 to 5 do
    guardian world ~at:0 (fun ctx ->
        Runtime.sleep ctx (Clock.ms 10);
        incr done_count;
        if !done_count = 5 then finish := Runtime.now world)
  done;
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check int) "sleeps overlap" (Clock.ms 10) !finish

let test_crash_resets_processors () =
  let world = make_world ~processors:2 in
  guardian world ~at:0 (fun ctx ->
      (* grab a CPU forever *)
      Runtime.compute ctx (Clock.s 100));
  Runtime.run_for world (Clock.ms 1);
  Alcotest.(check int) "one busy" 1 (Runtime.idle_processors world 0);
  Runtime.crash_node world 0;
  Runtime.restart_node world 0;
  Alcotest.(check int) "pool reset after crash" 2 (Runtime.idle_processors world 0)

let test_compute_contention_across_guardians () =
  (* Two different guardians on one node share its processors — the
     centralized layout's hidden coupling. *)
  let world = make_world ~processors:1 in
  let order = ref [] in
  guardian world ~at:0 (fun ctx ->
      Runtime.compute ctx (Clock.ms 10);
      order := "first" :: !order);
  guardian world ~at:0 (fun ctx ->
      Runtime.compute ctx (Clock.ms 10);
      order := ("second@" ^ string_of_int (Runtime.now world / 1_000_000)) :: !order);
  Runtime.run_for world (Clock.s 1);
  Alcotest.(check (list string)) "serialized across guardians"
    [ "second@20"; "first" ]
    !order

let tests =
  [
    Alcotest.test_case "semaphore counts" `Quick test_semaphore_counts;
    Alcotest.test_case "semaphore over-release" `Quick test_semaphore_release_over;
    Alcotest.test_case "semaphore positive" `Quick test_semaphore_needs_positive;
    Alcotest.test_case "parallel within limit" `Quick test_compute_parallel_within_limit;
    Alcotest.test_case "queues beyond limit" `Quick test_compute_queues_beyond_limit;
    Alcotest.test_case "single processor serializes" `Quick test_compute_single_processor_serializes;
    Alcotest.test_case "sleep is not compute" `Quick test_sleep_does_not_use_cpu;
    Alcotest.test_case "crash resets processors" `Quick test_crash_resets_processors;
    Alcotest.test_case "contention across guardians" `Quick test_compute_contention_across_guardians;
  ]
