(** Whole-program protocol analysis, pass 1: per-unit extraction.

    Parses each compilation unit once — [Scan] walks the same parsetree —
    and extracts the raw protocol facts — function definitions, declared
    message signatures, and handler dispatch sites — consumed by the
    interprocedural passes ([Proto_summary], [Proto_reply], [Proto_flow]).
    Untyped and syntactic. *)

module SSet : Set.S with type elt = string
module SMap : Map.S with type key = string

(** The abstract string-set lattice command names are evaluated in. *)
type names = Known of SSet.t | Dynamic

val known : string list -> names
val nunion : names -> names -> names

(** {1 Syntax helpers shared by the later passes} *)

val last2 : string list -> string * string
val lid_last : Longident.t -> string
val callee_pair : Parsetree.expression -> (string * string) option
val pair_string : string * string -> string
val line_of : Location.t -> int
val positional : int -> (Asttypes.arg_label * Parsetree.expression) list -> Parsetree.expression option
val labelled : string -> (Asttypes.arg_label * Parsetree.expression) list -> Parsetree.expression option
val strip : Parsetree.pattern -> Parsetree.pattern
val alternatives : Parsetree.pattern -> Parsetree.pattern list
val pat_constants : Parsetree.pattern -> string list
val binding_name : Parsetree.pattern -> string option
val sub_at : Parsetree.pattern -> idx:int -> ncomps:int -> Parsetree.pattern option
val is_reply_source : vars:SSet.t -> Parsetree.expression -> bool

val match_positions :
  ?reply_vars:SSet.t ->
  Parsetree.expression ->
  Parsetree.expression list * int option * int option
(** Scrutinee components plus the command and reply-port positions. *)

(** {1 Function definitions} *)

type param = {
  p_label : string;  (** "" when positional *)
  p_name : string;
  p_pos : int;  (** index among positional params; [-1] for labelled *)
  p_default : Parsetree.expression option;
}

type fn = {
  fn_name : string;
  fn_key : string;  (** ["Module.name"], the global summary key *)
  fn_context : string;  (** enclosing top-level binding *)
  fn_params : param list;
  fn_body : Parsetree.expression;
  fn_line : int;
}

val decompose_fun : Parsetree.expression -> param list * Parsetree.expression

(** {1 Handler / declaration sites} *)

type handle_kind = Dispatch | Declared | Reply_declared | Reply_match

val kind_name : handle_kind -> string

type handle = {
  h_name : string;
  h_kind : handle_kind;
  h_line : int;
  h_context : string;
  h_obligated : bool;  (** declared with a non-empty reply set *)
}

(** {1 Exports} *)

type export = {
  ex_path : string;  (** the [.mli] *)
  ex_qual : string list;  (** e.g. [["Register"; "Table"]] *)
  ex_name : string;
  ex_line : int;
  ex_optional : string list;  (** labels of the optional parameters *)
}

val exports : path:string -> source:string -> export list
(** Every [val] of an interface, nested module signatures included;
    [module type] bodies are skipped.  Empty when the file fails to parse. *)

(** {1 The per-unit record} *)

type unit_info = {
  u_path : string;
  u_module : string;  (** capitalized basename, e.g. ["Branch"] *)
  u_lib : string option;  (** ["bank"] for [lib/bank/branch.ml] *)
  u_id : string;  (** graph node id, e.g. ["bank/branch"] *)
  u_structure : (Parsetree.structure, string) result;
      (** the parse error's text when the unit fails to parse *)
  u_fns : fn list;
  u_handles : handle list;
  u_uses : string list;
      (** value references as ["M.v"], [M] reduced to its last module
          component (after local aliases); a bare [v] under an open [M]
          counts as ["M.v"].  An application of [M.v] also gives
          ["M.v?l"] per argument passed as [~l] or [?l].  For
          [unused-export] and [unused-optional]. *)
}

val load : path:string -> source:string -> unit_info
