(* Compare two `dcp.bench.micro/v1` JSON files and fail (exit 1) on any
   regressed row:

     bench_diff.exe BASELINE.json CANDIDATE.json [--threshold PCT] [--rows a,b,...]

   Rows are classed by the unit suffix in their name:

   - exact   — "(msgs/op)", "(virtual ms)", "(bytes)": deterministic
               functions of the pinned seed, gated at 0% drift (ANY
               change fails, in either direction — an improvement must
               update the committed baseline, not slip past the gate);
   - thruput — "(msgs/s)", "(x)": wall-clock throughput, higher is
               better; regressed when the candidate is LOWER than the
               baseline by more than TWICE the threshold (shared-host
               interference is one-sided — it only ever slows a run —
               so downward noise runs hotter than timing jitter);
   - timing  — everything else (ns/op): regressed when HIGHER than the
               baseline by more than the threshold.

   `--threshold` (default 25%) applies to the thruput/timing classes
   only.  `--rows` restricts the gate to the named rows; by default every
   row present in both files is gated.  Rows with a null estimate on
   either side are reported but never gated.  Files are read with the
   lint report's JSON parser ([Dcp_lint.Report]), which covers the subset
   our emitters produce. *)

module Report = Dcp_lint.Report

let schema = "dcp.bench.micro/v1"

type row_class = Exact | Throughput | Timing

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let classify name =
  if
    contains_sub name "(msgs/op)" || contains_sub name "(virtual ms)"
    || contains_sub name "(bytes)"
  then Exact
  else if contains_sub name "(msgs/s)" || contains_sub name "(x)" then Throughput
  else Timing

(* name -> ns_per_op option, in file order *)
let load_rows path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  let root =
    try Report.parse contents
    with Report.Parse_error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  in
  let field = Report.member in
  (match field "schema" root with
  | Some (Report.Str s) when s = schema -> ()
  | _ -> failwith (Printf.sprintf "%s: not a %s file" path schema));
  match field "results" root with
  | Some (Report.Arr rows) ->
      List.filter_map
        (fun row ->
          match (field "name" row, field "ns_per_op" row) with
          | Some (Report.Str name), Some (Report.Num ns) -> Some (name, Some ns)
          | Some (Report.Str name), Some Report.Null -> Some (name, None)
          | _ -> failwith (Printf.sprintf "%s: malformed results row" path))
        rows
  | _ -> failwith (Printf.sprintf "%s: missing results array" path)

let usage () =
  prerr_endline
    "usage: bench_diff.exe BASELINE.json CANDIDATE.json [--threshold PCT] [--rows a,b,...]";
  exit 2

let () =
  let baseline_path = ref None in
  let candidate_path = ref None in
  let threshold = ref 25.0 in
  let only_rows = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t > 0.0 -> threshold := t
        | _ -> usage ());
        parse_args rest
    | "--rows" :: v :: rest ->
        only_rows := Some (String.split_on_char ',' v);
        parse_args rest
    | arg :: rest ->
        (if String.length arg > 0 && arg.[0] = '-' then usage ()
         else
           match (!baseline_path, !candidate_path) with
           | None, _ -> baseline_path := Some arg
           | Some _, None -> candidate_path := Some arg
           | Some _, Some _ -> usage ());
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let baseline_path, candidate_path =
    match (!baseline_path, !candidate_path) with
    | Some b, Some c -> (b, c)
    | _ -> usage ()
  in
  let baseline, candidate =
    try (load_rows baseline_path, load_rows candidate_path)
    with Failure msg ->
      prerr_endline msg;
      exit 2
  in
  let gated name =
    match !only_rows with None -> true | Some names -> List.mem name names
  in
  (* Gate rows in candidate order so the report matches the bench output. *)
  let regressions = ref [] in
  let missing = ref [] in
  Printf.printf "%-42s %12s %12s %9s\n" "row" "baseline" "candidate" "delta";
  List.iter
    (fun (name, cand) ->
      match List.assoc_opt name baseline with
      | None | Some None ->
          Printf.printf "%-42s %12s %12s %9s\n" name "-"
            (match cand with Some c -> Printf.sprintf "%.1f" c | None -> "null")
            "new"
      | Some (Some base) -> (
          match cand with
          | None ->
              Printf.printf "%-42s %12.1f %12s %9s\n" name base "null" "?";
              if gated name then missing := name :: !missing
          | Some cand ->
              let delta = if base = 0.0 then 0.0 else (cand -. base) /. base *. 100.0 in
              let regressed =
                gated name
                &&
                match classify name with
                | Exact -> cand <> base
                | Throughput -> delta < -2.0 *. !threshold
                | Timing -> delta > !threshold
              in
              Printf.printf "%-42s %12.1f %12.1f %+8.1f%%%s\n" name base cand delta
                (if regressed then "  << REGRESSION" else "");
              if regressed then regressions := (name, delta) :: !regressions))
    candidate;
  (match !only_rows with
  | None -> ()
  | Some names ->
      List.iter
        (fun name ->
          if not (List.mem_assoc name candidate) then missing := name :: !missing)
        names);
  if !missing <> [] then begin
    Printf.printf "\nFAIL: gated row(s) without a candidate estimate: %s\n"
      (String.concat ", " (List.rev !missing));
    exit 1
  end;
  if !regressions <> [] then begin
    Printf.printf "\nFAIL: %d row(s) regressed (exact rows pinned at 0%%, others at %.0f%%)\n"
      (List.length !regressions) !threshold;
    exit 1
  end;
  Printf.printf "\nOK: no row regressed (exact rows pinned at 0%%, others at %.0f%%)\n" !threshold
