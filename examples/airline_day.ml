(* A day in the life of the distributed airline of Figure 2.

   Run with:  dune exec examples/airline_day.exe

   Builds a 4-region airline (one node per region, WAN links between),
   runs clerks against it, crashes a regional node mid-day, restarts it,
   and prints what the clerks experienced and what the books say. *)

module Runtime = Dcp_core.Runtime
module Cluster = Dcp_airline.Cluster
module Workload = Dcp_airline.Workload
module Types = Dcp_airline.Types
module Clock = Dcp_sim.Clock
module Engine = Dcp_sim.Engine

let () =
  let params =
    {
      Cluster.default_params with
      regions = 4;
      flights_per_region = 4;
      capacity = 30;
      organization = Types.Monitor;
      service_time = Clock.ms 2;
      clerks_per_region = 2;
      clerk =
        {
          Workload.default_config with
          transactions = 0 (* run all day *);
          requests_per_transaction = 5;
          think_time = Clock.ms 50;
          dates = 14;
          request_timeout = Clock.ms 800;
          attempts = 3;
        };
    }
  in
  let cluster = Cluster.build params in
  let world = cluster.Cluster.world in
  Format.printf "airline up: %d regions, %d flights, %d clerks@." params.Cluster.regions
    (params.Cluster.regions * params.Cluster.flights_per_region)
    (params.Cluster.regions * params.Cluster.clerks_per_region);

  (* Crash region 2's node a third of the way through the day, bring it
     back a while later — the paper's §3.5 failure scenario. *)
  let engine = Runtime.engine world in
  ignore
    (Engine.schedule engine ~at:(Clock.s 20) (fun () ->
         Format.printf "[%a] *** node 2 crashes ***@." Clock.pp (Engine.now engine);
         Runtime.crash_node world 2));
  ignore
    (Engine.schedule engine ~at:(Clock.s 30) (fun () ->
         Format.printf "[%a] *** node 2 restarts; guardians recover ***@." Clock.pp
           (Engine.now engine);
         Runtime.restart_node world 2));

  let report = Cluster.run cluster ~duration:(Clock.s 60) in
  Format.printf "@.=== day report (60 virtual seconds) ===@.%a@." Cluster.pp_report report;
  let totals = report.Cluster.totals in
  Format.printf
    "reserve outcomes: ok=%d full=%d wait_list=%d pre_reserved=%d; request failures=%d@."
    totals.Workload.reserves_ok totals.Workload.reserves_full totals.Workload.reserves_waitlisted
    totals.Workload.reserves_pre_reserved totals.Workload.request_failures;
  Format.printf "crashes survived: node 2 crashed %d time(s); guardians recovered.@."
    (Runtime.crash_count world 2)
