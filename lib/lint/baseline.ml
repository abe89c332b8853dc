(* The committed allowlist of grandfathered findings, one Finding.key per
   line.  Keys omit line numbers (see Finding.key), so entries survive
   unrelated edits; a key matches every current finding with the same
   (rule, file, context, token), which deliberately collapses multiple
   occurrences inside one binding into one entry. *)

type t = { keys : (string, bool ref) Hashtbl.t }

let empty () = { keys = Hashtbl.create 16 }

let add t key = if not (Hashtbl.mem t.keys key) then Hashtbl.replace t.keys key (ref false)

let read_lines path =
  if not (Sys.file_exists path) then []
  else List.map String.trim (In_channel.with_open_text path In_channel.input_lines)

let is_key line = String.length line > 0 && line.[0] <> '#'

let load ~path =
  let t = empty () in
  List.iter (fun line -> if is_key line then add t line) (read_lines path);
  t

let apply t findings =
  List.iter
    (fun f ->
      match Hashtbl.find_opt t.keys (Finding.key f) with
      | Some hit ->
          hit := true;
          f.Finding.baselined <- true
      | None -> ())
    findings

(* Entries that matched nothing: the grandfathered finding was fixed (or its
   binding renamed).  Each one fails the build until it is pruned, by hand
   or with --update-baseline. *)
let stale t =
  Hashtbl.fold (fun key hit acc -> if !hit then acc else key :: acc) t.keys []
  |> List.sort String.compare

let header =
  [
    "# dcp_lint baseline: grandfathered findings, one `rule file context/token` key";
    "# per line, grouped under `#` reason comments.  `dcp_lint.exe --update-baseline`";
    "# appends new keys at the end; move each under its reason by hand.";
  ]

(* Rewrite in place: comment and blank lines stay where they are (entries
   sit under reason comments), keys that still match are kept, stale ones
   dropped, and new keys appended. *)
let save ~path findings =
  let keys = List.sort_uniq String.compare (List.map Finding.key findings) in
  let previous = match read_lines path with [] -> header | lines -> lines in
  let kept =
    List.filter (fun l -> (not (is_key l)) || List.exists (String.equal l) keys) previous
  in
  let fresh = List.filter (fun k -> not (List.exists (String.equal k) previous)) keys in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) (kept @ fresh);
  close_out oc
