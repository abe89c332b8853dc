module Clock = Dcp_sim.Clock

type params = {
  seed : int;
  profile : Profile.t;
  horizon : Clock.time;
  workload : int;
  shards : int;
  parallel : bool;
}

type verdict = Pass | Fail of string

type outcome = {
  verdict : verdict;
  fingerprint : string;
  stats : (string * int) list;
}

type t = {
  name : string;
  descr : string;
  default_horizon : Clock.time;
  default_workload : int;
  run : params -> outcome;
}

let execute t ~seed ~profile ?horizon ?workload ?(intensity = 1.0) ?(shards = 1)
    ?(parallel = false) () =
  let profile = Profile.scale profile ~intensity in
  let horizon = Option.value horizon ~default:t.default_horizon in
  let workload = Option.value workload ~default:t.default_workload in
  t.run { seed; profile; horizon; workload; shards; parallel }

let fail_reason outcome = match outcome.verdict with Pass -> None | Fail reason -> Some reason

let pp_outcome ppf outcome =
  (match outcome.verdict with
  | Pass -> Format.fprintf ppf "PASS"
  | Fail reason -> Format.fprintf ppf "FAIL: %s" reason);
  Format.fprintf ppf "@ [%s]" outcome.fingerprint
