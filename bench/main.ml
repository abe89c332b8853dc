(* Benchmark harness: regenerates every experiment table of DESIGN.md §4
   (E1-E10) on the simulator, then runs the bechamel micro-benchmarks.

   Run with:  dune exec bench/main.exe
   Pass ids from the registry below (e1 ... e10, micro, ...) to run a
   subset.  An unknown id runs nothing and exits 2.

   `dune exec bench/main.exe -- micro` additionally writes BENCH_micro.json
   (ns/op per hot-path row; schema in DESIGN.md §6) — the machine-readable
   perf baseline compared across PRs.  `dune build @bench-smoke` runs it as
   a CI smoke check. *)

let registry =
  [
    ("e1", Experiments.e1);
    ("e2", Experiments.e2);
    ("e2b", Experiments.e2b);
    ("e3", Experiments.e3);
    ("e4a", Experiments.e4_crashes);
    ("e4b", Experiments.e4_idempotency);
    ("e5", Experiments.e5);
    ("e6", Experiments.e6);
    ("e7", Experiments.e7);
    ("e8", Experiments.e8);
    ("e9", Experiments.e9);
    ("e10", Experiments.e10);
    ("micro", Micro.run);
    ("replica-rows", Micro.run_replica_gate);
    ("scaling", Scaling.run);
  ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let find name = List.assoc_opt (String.lowercase_ascii name) registry in
  (match List.filter (fun name -> Option.is_none (find name)) requested with
  | [] -> ()
  | unknown ->
      List.iter (Printf.eprintf "unknown experiment %S\n") unknown;
      Printf.eprintf "known: %s\n" (String.concat ", " (List.map fst registry));
      exit 2);
  let to_run =
    match requested with
    | [] -> registry
    | names -> List.map (fun name -> (name, Option.get (find name))) names
  in
  print_endline "Primitives for Distributed Computing (Liskov, SOSP 1979) — reproduction benches";
  List.iter
    (fun (name, f) ->
      Printf.printf "-- %s --\n%!" name;
      f ())
    to_run
