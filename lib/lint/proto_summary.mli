(** Whole-program protocol analysis, pass 2: interprocedural summaries.

    Builds fixpoint summaries over every function [Proto_extract] collected —
    command-argument sinks, returned command names, mutable-escape — then
    resolves each transmission site in a unit to the abstract set of message
    names it can send, reporting mutable payloads (direct or laundered
    through helpers) along the way. *)

open Proto_extract

(** Where a command name enters a sink function's parameter list. *)
type slot = Spos of int | Slabel of string

type apply_site = {
  a_pair : string * string;
  a_args : (Asttypes.arg_label * Parsetree.expression) list;
  a_line : int;
}

type info = { i_fn : fn; i_unit : unit_info; i_applies : apply_site list }

type env = {
  fns : info list SMap.t;
  mutable sinks : slot list SMap.t;
      (** fn_key -> parameter slots that flow into a send's command *)
  mutable rstr : names SMap.t;  (** fn_key -> names the fn returns directly *)
  mutable rtup : names SMap.t;
      (** fn_key -> names in the first component of a returned tuple *)
  mutable ret_mutable : SSet.t;  (** fns returning a raw mutable value *)
  mutable passthrough : int list SMap.t;
      (** fn_key -> positional params returned unchanged *)
  mutable repliers : SSet.t;
      (** fns that inspect [reply_to] and reach a transmission sink *)
}

val build : unit_info list -> env
(** Run all summary fixpoints over the program. *)

val is_replier : env -> own:string -> string * string -> bool

val call_edges : env -> (string option * string * string) list
(** [(lib, caller_key, callee_key)] edges to in-repo functions, sorted. *)

(** A resolved transmission site. *)
type send = {
  sd_line : int;
  sd_context : string;
  sd_via : string;  (** the syntactic callee, e.g. ["Runtime.send"] *)
  sd_names : names;
}

val collect_sends : env -> unit_info -> send list * Finding.t list
(** All sends of a unit plus its [mutable-payload] findings. *)

val unused_exports : export list -> unit_info list -> Finding.t list
(** [unused-export] findings for exports no other unit names,
    [test-only-export] findings for exports only units under [test/]
    name, and [unused-optional] findings for the optional parameters of the
    other exports that no other unit's application passes. *)
