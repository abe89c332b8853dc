(** Whole-system assembly: the distributed airline of Figure 2.

    "Each node belonging to the airline has one guardian P{_j} for the
    region in which it resides, and one guardian U{_j} to provide an
    interface to the airline data base for that node's users."

    A cluster builds one node per region; each node hosts its regional
    manager (with that region's flight guardians), a front desk, and that
    region's clerks.  Flight [f] belongs to region [f mod regions].  Every
    flight uses {!Types.Idempotent_set} accounting, and a clerk's request
    concerns a flight of its own region with probability 0.8 (otherwise
    any flight, uniformly): the locality the Figure 2 layout exploits.  The
    [centralized] variant keeps every flight guardian behind a single
    regional manager at node 0 — the §2.3 single-top-level-guardian layout
    — so E2 can compare the two organizations the paper contrasts. *)

module Clock = Dcp_sim.Clock

type params = {
  regions : int;
  flights_per_region : int;
  capacity : int;
  organization : Types.organization;
  service_time : Clock.time;
  clerks_per_region : int;
  clerk : Workload.config;
  inter_node : Dcp_net.Link.t;  (** link between airline nodes *)
  centralized : bool;
  processors_per_node : int;  (** CPUs per node ({!Dcp_core.Runtime.compute}) *)
  disk : Dcp_stable.Disk.spec option;
      (** disk-fault injector attached to every guardian store; [None] =
          perfect disks *)
  checkpoint_every : int option;  (** WAL auto-checkpoint period, in appends *)
  seed : int;
}

val default_params : params

type t = {
  world : Dcp_core.Runtime.world;
  front_desks : Dcp_wire.Port_name.t list;  (** one per region/node *)
  regionals : Dcp_wire.Port_name.t list;
  params : params;
}

val build : params -> t
(** Build the world and every guardian; clerks start running when the
    simulation runs. *)

type report = {
  duration : Clock.time;
  requests_ok : int;  (** requests answered with a successful outcome *)
  requests_failed : int;
  throughput_per_s : float;  (** successful clerk requests per virtual second *)
  latency_mean_us : float;
  latency_p50_us : float;
  latency_p95_us : float;
  latency_p99_us : float;
  transactions_completed : int;
  transactions_abandoned : int;
  messages_sent : int;
  totals : Workload.totals;
}

val run : t -> duration:Clock.time -> report
(** Run the cluster for the given virtual duration and summarise. *)

val pp_report : Format.formatter -> report -> unit
