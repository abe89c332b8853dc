(* The machine-readable lint report (`dcp.lint.report/v1`), following the
   bench/check emitters: a self-contained JSON value with its own renderer
   and a parser covering exactly the subset we emit, so the schema
   round-trips without external dependencies. *)

let schema = "dcp.lint.report/v1"

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ---- rendering ---- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let render v =
  let b = Buffer.create 4096 in
  let rec go indent v =
    match v with
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> Buffer.add_string b (render_num f)
    | Str s -> Buffer.add_string b (Printf.sprintf "\"%s\"" (escape s))
    | Arr [] -> Buffer.add_string b "[]"
    | Arr items ->
        let pad = String.make (indent + 2) ' ' in
        Buffer.add_string b "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b pad;
            go (indent + 2) item)
          items;
        Buffer.add_string b (Printf.sprintf "\n%s]" (String.make indent ' '))
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        let pad = String.make (indent + 2) ' ' in
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b (Printf.sprintf "%s\"%s\": " pad (escape k));
            go (indent + 2) item)
          fields;
        Buffer.add_string b (Printf.sprintf "\n%s}" (String.make indent ' '))
  in
  go 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ---- parsing (the emitted subset) ---- *)

exception Parse_error of string

let parse (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= len && String.equal (String.sub s !pos (String.length word)) word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail "unknown literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= len then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= len then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if !pos + 4 > len then fail "truncated \\u escape";
            let code = int_of_string ("0x" ^ String.sub s !pos 4) in
            pos := !pos + 4;
            Buffer.add_char b (if code < 128 then Char.chr code else '?')
        | _ -> fail "unknown escape");
        loop ()
      end
      else begin
        Buffer.add_char b c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < len && is_num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing bytes";
  v

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None

(* ---- building the report ---- *)

let of_finding (f : Finding.t) =
  Obj
    [
      ("rule", Str f.rule);
      ("file", Str f.file);
      ("line", Num (float_of_int f.line));
      ("col", Num (float_of_int f.col));
      ("context", Str f.context);
      ("token", Str f.token);
      ("message", Str f.message);
      ("key", Str (Finding.key f));
      ("baselined", Bool f.baselined);
    ]

let of_layer (l : Layers.lib) =
  Obj
    [
      ("lib", Str l.dir);
      ("name", Str l.lib_name);
      ("rank", Num (float_of_int l.rank));
      ("deps", Arr (List.map (fun d -> Str d) l.deps));
    ]

(* Per-rule totals over the rules [tier] runs, shared with [Proto_report]. *)
let rule_summary tier findings =
  let count p = List.length (List.filter p findings) in
  Obj
    (List.filter_map
       (fun (rule, family, t) ->
         if t <> tier then None
         else
           Some
             ( rule,
               Obj
                 [
                   ("family", Str (Finding.family_name family));
                   ( "total",
                     Num (float_of_int (count (fun f -> String.equal f.Finding.rule rule))) );
                   ( "active",
                     Num
                       (float_of_int
                          (count (fun f ->
                               String.equal f.Finding.rule rule && not f.Finding.baselined))) );
                 ] ))
       Finding.rules)

let build ~root ~files_scanned ~layers ~findings ~stale_baseline =
  let active = List.filter (fun f -> not f.Finding.baselined) findings in
  let sorted_layers =
    List.sort
      (fun (a : Layers.lib) b ->
        let c = Int.compare a.rank b.rank in
        if c <> 0 then c else String.compare a.dir b.dir)
      layers
  in
  Obj
    [
      ("schema", Str schema);
      ("root", Str root);
      ("files_scanned", Num (float_of_int files_scanned));
      ("layers", Arr (List.map of_layer sorted_layers));
      ("findings", Arr (List.map of_finding findings));
      ("stale_baseline", Arr (List.map (fun k -> Str k) stale_baseline));
      ( "summary",
        Obj
          [
            ("total", Num (float_of_int (List.length findings)));
            ("active", Num (float_of_int (List.length active)));
            ("baselined", Num (float_of_int (List.length findings - List.length active)));
            ("stale_baseline", Num (float_of_int (List.length stale_baseline)));
            ("rules", rule_summary Finding.Scan findings);
          ] );
    ]
