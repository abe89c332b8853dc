(* Whole-program protocol analysis, pass 1: per-unit extraction.

   Parses every compilation unit once and pulls out the raw protocol facts
   the later passes consume: function definitions (fuel for the
   interprocedural summaries in Proto_summary), declared message signatures
   (Rpc.request_signature / Vtype.signature / Vtype.reply), and handler
   dispatch sites (match cases over a message command).  Scan walks the
   same parsetree.  The pass is untyped and syntactic: names are resolved
   by their written [Longident] suffix, which matches the tree's pervasive
   [module Rpc = Dcp_primitives.Rpc] aliasing idiom. *)

open Parsetree
module SSet = Set.Make (String)
module SMap = Map.Make (String)

(* Abstract string set: the lattice every command-name evaluation lives
   in.  [Dynamic] means "some name we cannot resolve statically" and
   poisons unions. *)
type names = Known of SSet.t | Dynamic

let known l = Known (SSet.of_list l)

let nunion a b =
  match (a, b) with Dynamic, _ | _, Dynamic -> Dynamic | Known a, Known b -> Known (SSet.union a b)

(* ---- longident / callee helpers ---- *)

let last2 comps =
  match List.rev comps with
  | last :: prev :: _ -> (prev, last)
  | [ last ] -> ("", last)
  | [] -> ("", "")

let lid_last lid = match List.rev (Longident.flatten lid) with last :: _ -> last | [] -> ""

let rec callee_lid e =
  match e.pexp_desc with
  | Pexp_ident lid -> Some lid.txt
  | Pexp_apply (f, _) -> callee_lid f
  | _ -> None

let callee_pair e =
  match callee_lid e with Some lid -> Some (last2 (Longident.flatten lid)) | None -> None

let pair_string (m, f) = if String.equal m "" then f else m ^ "." ^ f

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

(* ---- application arguments ---- *)

let positional n args =
  let rec go i = function
    | [] -> None
    | (Asttypes.Nolabel, e) :: rest -> if i = n then Some e else go (i + 1) rest
    | _ :: rest -> go i rest
  in
  go 0 args

let labelled name args =
  List.find_map
    (function
      | (Asttypes.Labelled l | Asttypes.Optional l), e when String.equal l name -> Some e
      | _ -> None)
    args

(* ---- patterns ---- *)

let rec strip p =
  match p.ppat_desc with
  | Ppat_alias (inner, _) | Ppat_constraint (inner, _) | Ppat_open (_, inner) -> strip inner
  | _ -> p

(* Flatten a top-level or-pattern into its alternatives. *)
let rec alternatives p =
  let p = strip p in
  match p.ppat_desc with Ppat_or (a, b) -> alternatives a @ alternatives b | _ -> [ p ]

(* Every string constant reachable under or/alias nesting. *)
let rec pat_constants p =
  let p = strip p in
  match p.ppat_desc with
  | Ppat_constant (Pconst_string (s, _, _)) -> [ s ]
  | Ppat_or (a, b) -> pat_constants a @ pat_constants b
  | _ -> []

let rec binding_name pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (inner, _) | Ppat_alias (inner, _) -> binding_name inner
  | _ -> None

(* The [idx]-th component of a case alternative matching an [ncomps]-tuple
   scrutinee; [None] when the alternative is a catch-all that covers the
   component without naming it. *)
let sub_at alt ~idx ~ncomps =
  if ncomps = 1 then Some alt
  else
    match (strip alt).ppat_desc with
    | Ppat_tuple comps when List.length comps = ncomps -> List.nth_opt comps idx
    | _ -> None

(* ---- function definitions ---- *)

type param = {
  p_label : string;  (** "" when positional *)
  p_name : string;
  p_pos : int;  (** index among positional params; [-1] for labelled *)
  p_default : expression option;
}

type fn = {
  fn_name : string;
  fn_key : string;  (** ["Module.name"], the global summary key *)
  fn_context : string;  (** enclosing top-level binding *)
  fn_params : param list;
  fn_body : expression;
  fn_line : int;
}

(* Walk a [fun]-chain down to the first non-fun body.  A bare [function]
   keeps its cases as the body: the later tail analyses flatten through
   it, which is what a one-argument dispatch function wants. *)
let decompose_fun e =
  let rec go pos acc e =
    match e.pexp_desc with
    | Pexp_fun (lbl, default, pat, body) ->
        let label =
          match lbl with Asttypes.Nolabel -> "" | Asttypes.Labelled l | Asttypes.Optional l -> l
        in
        let name =
          match binding_name pat with
          | Some n -> n
          | None -> if String.equal label "" then "_" else label
        in
        let p =
          {
            p_label = label;
            p_name = name;
            p_pos = (if String.equal label "" then pos else -1);
            p_default = default;
          }
        in
        go (if String.equal label "" then pos + 1 else pos) (p :: acc) body
    | Pexp_newtype (_, body) -> go pos acc body
    | _ -> (List.rev acc, e)
  in
  go 0 [] e

(* ---- handler / declaration sites ---- *)

type handle_kind =
  | Dispatch  (** a match case over a message command *)
  | Declared  (** Rpc.request_signature / Vtype.signature *)
  | Reply_declared  (** Vtype.reply *)
  | Reply_match  (** an [Rpc.Reply ("name", _)] consumption pattern *)

let kind_name = function
  | Dispatch -> "dispatch"
  | Declared -> "declared"
  | Reply_declared -> "reply-declared"
  | Reply_match -> "reply-match"

type handle = {
  h_name : string;
  h_kind : handle_kind;
  h_line : int;
  h_context : string;
  h_obligated : bool;  (** declared with a non-empty reply set *)
}

(* ---- command / reply scrutinee shapes ---- *)

let is_command_expr e =
  match e.pexp_desc with
  | Pexp_field (_, lid) -> String.equal (lid_last lid.txt) "command"
  | Pexp_ident { txt = Longident.Lident x; _ } -> String.equal x "command"
  | _ -> false

let is_reply_source ~vars e =
  match e.pexp_desc with
  | Pexp_field (_, lid) -> String.equal (lid_last lid.txt) "reply_to"
  | Pexp_ident { txt = Longident.Lident x; _ } -> SSet.mem x vars
  | _ -> false

let index_of pred l =
  let rec go i = function [] -> None | x :: rest -> if pred x then Some i else go (i + 1) rest in
  go 0 l

(* A match scrutinee viewed as components: the component list, plus the
   positions of the command and the reply port when present. *)
let match_positions ?(reply_vars = SSet.empty) scrut =
  let comps = match scrut.pexp_desc with Pexp_tuple l -> l | _ -> [ scrut ] in
  let ci = index_of is_command_expr comps in
  let ri = index_of (is_reply_source ~vars:reply_vars) comps in
  (comps, ci, ri)

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* ---- value references and exports (unused-export, unused-optional) ---- *)

(* Every value reference of a structure as ["M.v"], with [M] reduced to
   its last module component (after local module aliases) the way sends
   are resolved; a bare [v] under [open M] / [M.( ... )] counts as
   ["M.v"] for every module open at that point.  An application of [M.v]
   also adds ["M.v?l"] for each argument it passes as [~l] or [?l]. *)
let uses str =
  let acc = ref [] in
  let opens = ref [] in
  let aliases = Hashtbl.create 8 in
  let target lid =
    match Longident.flatten lid with
    | [ m ] -> Option.value (Hashtbl.find_opt aliases m) ~default:m
    | comps -> snd (last2 comps)
  in
  let keys = function
    | Longident.Ldot (m, name) -> [ target m ^ "." ^ name ]
    | Longident.Lident name -> List.map (fun m -> m ^ "." ^ name) !opens
    | Longident.Lapply _ -> []
  in
  let add key = acc := key :: !acc in
  let alias name me =
    match (name, me.pmod_desc) with
    | Some x, Pmod_ident lid -> Hashtbl.replace aliases x (target lid.txt)
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let scoped f =
    let saved = !opens in
    f ();
    opens := saved
  in
  let expr self e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> List.iter add (keys txt)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        List.iter
          (fun (label, _) ->
            match label with
            | Asttypes.Labelled l | Optional l -> List.iter (fun k -> add (k ^ "?" ^ l)) (keys txt)
            | Nolabel -> ())
          args;
        super.expr self e
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ }, body) ->
        scoped (fun () ->
            opens := target lid.txt :: !opens;
            self.Ast_iterator.expr self body)
    | Pexp_letmodule ({ txt; _ }, me, _) ->
        alias txt me;
        super.expr self e
    | _ -> super.expr self e
  in
  let structure self items =
    scoped (fun () -> List.iter (self.Ast_iterator.structure_item self) items)
  in
  let structure_item self item =
    (match item.pstr_desc with
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ } ->
        opens := target lid.txt :: !opens
    | Pstr_module { pmb_name = { txt; _ }; pmb_expr; _ } -> alias txt pmb_expr
    | _ -> ());
    super.structure_item self item
  in
  let it = { super with expr; structure; structure_item } in
  it.structure it str;
  !acc

(* Every [val] of an interface, nested [module X : sig ... end] included
   under its qualified path; [module type] bodies are skipped. *)
type export = {
  ex_path : string;  (** the [.mli] *)
  ex_qual : string list;  (** e.g. [["Register"; "Table"]] *)
  ex_name : string;
  ex_line : int;
  ex_optional : string list;  (** labels of the optional parameters *)
}

let rec optional_labels t =
  match t.ptyp_desc with
  | Ptyp_arrow (Optional l, _, rest) -> l :: optional_labels rest
  | Ptyp_arrow (_, _, rest) | Ptyp_poly (_, rest) -> optional_labels rest
  | _ -> []

let exports ~path ~source =
  let rec items qual sg =
    List.concat_map
      (fun item ->
        match item.psig_desc with
        | Psig_value vd ->
            [
              {
                ex_path = path;
                ex_qual = qual;
                ex_name = vd.pval_name.txt;
                ex_line = line_of item.psig_loc;
                ex_optional = optional_labels vd.pval_type;
              };
            ]
        | Psig_module
            { pmd_name = { txt = Some m; _ }; pmd_type = { pmty_desc = Pmty_signature sg; _ }; _ }
          ->
            items (qual @ [ m ]) sg
        | _ -> [])
      sg
  in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match Parse.interface lexbuf with sg -> items [ module_of_path path ] sg | exception _ -> []

(* ---- the per-unit record ---- *)

type unit_info = {
  u_path : string;
  u_module : string;  (** capitalized basename, e.g. ["Branch"] *)
  u_lib : string option;  (** ["bank"] for [lib/bank/branch.ml] *)
  u_id : string;  (** graph node id, e.g. ["bank/branch"] *)
  u_structure : (structure, string) result;  (** the parse error's text on failure *)
  u_fns : fn list;
  u_handles : handle list;
  u_uses : string list;
}

let id_of_path path =
  let base = Filename.remove_extension (Filename.basename path) in
  match String.split_on_char '/' path with
  | "lib" :: dir :: _ -> dir ^ "/" ^ base
  | dir :: _ :: _ -> dir ^ "/" ^ base
  | _ -> base

let lib_of_path path =
  match String.split_on_char '/' path with [ "lib"; dir; _ ] -> Some dir | _ -> None

(* Collect function definitions (top-level and local) and handler /
   declaration sites in one walk. *)
let extract ~path structure =
  let modname = module_of_path path in
  let fns = ref [] in
  let handles = ref [] in
  let context = ref "-" in
  let add_handle ~name ~kind ~line ~obligated =
    handles :=
      { h_name = name; h_kind = kind; h_line = line; h_context = !context; h_obligated = obligated }
      :: !handles
  in
  let super = Ast_iterator.default_iterator in
  let value_binding self vb =
    (match binding_name vb.pvb_pat with
    | Some name -> (
        match decompose_fun vb.pvb_expr with
        | [], _ -> ()
        | params, body ->
            fns :=
              {
                fn_name = name;
                fn_key = modname ^ "." ^ name;
                fn_context = !context;
                fn_params = params;
                fn_body = body;
                fn_line = line_of vb.pvb_loc;
              }
              :: !fns)
    | None -> ());
    super.value_binding self vb
  in
  let record_dispatch_cases scrut cases loc =
    match match_positions scrut with
    | comps, Some ci, _ ->
        List.iter
          (fun case ->
            List.iter
              (fun alt ->
                match sub_at alt ~idx:ci ~ncomps:(List.length comps) with
                | Some sub ->
                    List.iter
                      (fun name ->
                        add_handle ~name ~kind:Dispatch ~line:(line_of loc) ~obligated:false)
                      (pat_constants sub)
                | None -> ())
              (alternatives case.pc_lhs))
          cases
    | _ -> ()
  in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_match (scrut, cases) -> record_dispatch_cases scrut cases e.pexp_loc
    | Pexp_apply (f, args) -> (
        match callee_pair f with
        | Some (_, "request_signature") -> (
            match positional 0 args with
            | Some { pexp_desc = Pexp_constant (Pconst_string (name, _, _)); pexp_loc; _ } ->
                (* RPC requests always carry replies (the labelled argument
                   is mandatory), so the reply obligation always holds. *)
                add_handle ~name ~kind:Declared ~line:(line_of pexp_loc) ~obligated:true
            | _ -> ())
        | Some ("Vtype", "signature") -> (
            match positional 0 args with
            | Some { pexp_desc = Pexp_constant (Pconst_string (name, _, _)); pexp_loc; _ } ->
                let obligated =
                  match labelled "replies" args with
                  | Some { pexp_desc = Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None); _ }
                    ->
                      false
                  | Some _ -> true
                  | None -> false
                in
                add_handle ~name ~kind:Declared ~line:(line_of pexp_loc) ~obligated
            | _ -> ())
        | Some ("Vtype", "reply") -> (
            match positional 0 args with
            | Some { pexp_desc = Pexp_constant (Pconst_string (name, _, _)); pexp_loc; _ } ->
                add_handle ~name ~kind:Reply_declared ~line:(line_of pexp_loc) ~obligated:false
            | _ -> ())
        | _ -> ())
    | _ -> ());
    super.expr self e
  in
  let pat self p =
    (match p.ppat_desc with
    | Ppat_construct (lid, Some (_, arg)) when String.equal (lid_last lid.txt) "Reply" ->
        (* [Rpc.Reply ("name", _)]: the client consumes this reply name. *)
        let first =
          match (strip arg).ppat_desc with Ppat_tuple (c :: _) -> Some c | _ -> None
        in
        Option.iter
          (fun c ->
            List.iter
              (fun name ->
                add_handle ~name ~kind:Reply_match ~line:(line_of p.ppat_loc) ~obligated:false)
              (pat_constants c))
          first
    | Ppat_record (fields, _) ->
        List.iter
          (fun (lid, sub) ->
            if String.equal (lid_last lid.Location.txt) "command" then
              List.iter
                (fun name ->
                  add_handle ~name ~kind:Dispatch ~line:(line_of p.ppat_loc) ~obligated:false)
                (pat_constants sub))
          fields
    | _ -> ());
    super.pat self p
  in
  let structure_item self item =
    match item.pstr_desc with
    | Pstr_value (_, bindings) ->
        List.iter
          (fun vb ->
            let saved = !context in
            (match binding_name vb.pvb_pat with Some name -> context := name | None -> ());
            self.Ast_iterator.value_binding self vb;
            context := saved)
          bindings
    | _ -> super.structure_item self item
  in
  let it = { super with expr; pat; value_binding; structure_item } in
  it.structure it structure;
  (List.rev !fns, List.rev !handles)

let load ~path ~source =
  let structure =
    try
      let lexbuf = Lexing.from_string source in
      Location.init lexbuf path;
      Ok (Parse.implementation lexbuf)
    with
    | Syntaxerr.Error _ -> Error "syntax error"
    | exn -> Error (Printexc.to_string exn)
  in
  let fns, handles =
    match structure with Ok s -> extract ~path s | Error _ -> ([], [])
  in
  {
    u_path = path;
    u_module = module_of_path path;
    u_lib = lib_of_path path;
    u_id = id_of_path path;
    u_structure = structure;
    u_fns = fns;
    u_handles = handles;
    u_uses = (match structure with Ok s -> uses s | Error _ -> []);
  }
