module Engine = Dcp_sim.Engine

type state = Created | Running | Blocked | Finished | Dead

type t = {
  pid : int;
  name : string;
  mutable state : state;
  mutable failure : exn option;
}

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

(* Pids are unique across the world but their allocation order carries no
   meaning (they appear only in log lines and accessors, never in message
   bytes), so a cross-domain counter is safe here. *)
let next_pid = Dcp_sim.Exec.counter 0

let state t = t.state
let alive t = match t.state with Created | Running | Blocked -> true | Finished | Dead -> false
let failure t = t.failure

let kill t = if alive t then t.state <- Dead

let spawn engine ~name body =
  let p = { pid = Dcp_sim.Exec.fetch_incr next_pid; name; state = Created; failure = None } in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> if p.state <> Dead then p.state <- Finished);
      exnc =
        (fun e ->
          if p.state <> Dead then begin
            p.state <- Finished;
            p.failure <- Some e;
            Logs.warn (fun m ->
                m "process %s#%d died with exception %s" p.name p.pid (Printexc.to_string e))
          end);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  if p.state = Dead then ()
                    (* killed while running: stop at this suspension point;
                       the continuation is dropped *)
                  else begin
                  p.state <- Blocked;
                  let resumed = ref false in
                  let resume v =
                    if not !resumed then begin
                      resumed := true;
                      if p.state = Blocked then begin
                        p.state <- Running;
                        Effect.Deep.continue k v
                      end
                      (* a killed process's continuation is dropped; the
                         fiber is reclaimed by the GC *)
                    end
                  in
                  register resume
                  end)
          | _ -> None);
    }
  in
  let start () =
    if p.state = Created then begin
      p.state <- Running;
      Effect.Deep.match_with body () handler
    end
  in
  ignore (Engine.schedule_after engine ~delay:0 start);
  p

let suspend register = Effect.perform (Suspend register)

let sleep engine d =
  suspend (fun resume -> ignore (Engine.schedule_after engine ~delay:d (fun () -> resume ())))
