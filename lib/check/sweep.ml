type failure = {
  profile : string;
  seed : int;
  reason : string;
}

type t = {
  scenario : string;
  profiles : string list;
  seed_base : int;
  seeds : int;
  runs : int;
  failures : failure list;
  wall_s : float;
}

let run ?horizon ?workload ?(shards = 1) ?(parallel = false) scenario ~profiles ~seed_base
    ~seeds =
  let started = Unix.gettimeofday () in
  let failures = ref [] in
  List.iter
    (fun profile ->
      for seed = seed_base to seed_base + seeds - 1 do
        let outcome =
          Scenario.execute scenario ~seed ~profile ?horizon ?workload ~shards ~parallel ()
        in
        match Scenario.fail_reason outcome with
        | None -> ()
        | Some reason -> failures := { profile = profile.Profile.name; seed; reason } :: !failures
      done)
    profiles;
  {
    scenario = scenario.Scenario.name;
    profiles = List.map (fun p -> p.Profile.name) profiles;
    seed_base;
    seeds;
    runs = List.length profiles * seeds;
    failures = List.rev !failures;
    wall_s = Unix.gettimeofday () -. started;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>%s: %d runs (%d seeds from %d x profiles %s): %d failure%s, %.2fs@]"
    t.scenario t.runs t.seeds t.seed_base
    (String.concat "," t.profiles)
    (List.length t.failures)
    (if List.length t.failures = 1 then "" else "s")
    t.wall_s;
  List.iter
    (fun f -> Format.fprintf ppf "@
  FAIL seed=%d profile=%s: %s" f.seed f.profile f.reason)
    t.failures

(* Same defensive escaping as the bench emitter: names and reasons are
   controlled strings, but keep the JSON well-formed whatever they hold. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json ~path sweeps =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"dcp.check.sweep/v1\",\n  \"sweeps\": [";
  List.iteri
    (fun i t ->
      Printf.fprintf oc "%s\n    {\n      \"scenario\": \"%s\",\n      \"profiles\": [%s],\n"
        (if i = 0 then "" else ",")
        (json_escape t.scenario)
        (String.concat ", " (List.map (fun p -> Printf.sprintf "\"%s\"" (json_escape p)) t.profiles));
      Printf.fprintf oc "      \"seed_base\": %d,\n      \"seeds_per_profile\": %d,\n      \"runs\": %d,\n"
        t.seed_base t.seeds t.runs;
      Printf.fprintf oc "      \"wall_s\": %.3f,\n      \"failures\": [" t.wall_s;
      List.iteri
        (fun j f ->
          Printf.fprintf oc "%s\n        { \"profile\": \"%s\", \"seed\": %d, \"reason\": \"%s\" }"
            (if j = 0 then "" else ",")
            (json_escape f.profile) f.seed (json_escape f.reason))
        t.failures;
      Printf.fprintf oc "%s]\n    }" (if t.failures = [] then "" else "\n      ");
      ())
    sweeps;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc
