module Engine = Dcp_sim.Engine

type mutex = {
  engine : Engine.t;
  mutable held : bool;
  mutable mutex_waiters : (unit -> unit) Queue.t;
}

let mutex engine = { engine; held = false; mutex_waiters = Queue.create () }

let lock m =
  if not m.held then m.held <- true
  else
    Process.suspend (fun resume -> Queue.add (fun () -> resume ()) m.mutex_waiters)

let unlock m =
  if not m.held then invalid_arg "Sync.unlock: mutex not held";
  match Queue.take_opt m.mutex_waiters with
  | None -> m.held <- false
  | Some wake ->
      (* Hand the lock directly to the next waiter; schedule the wakeup so
         the unlocking process finishes its current event first. *)
      ignore (Engine.schedule_after m.engine ~delay:0 wake)

let with_lock m f =
  lock m;
  Fun.protect ~finally:(fun () -> unlock m) f

type condition = { cengine : Engine.t; mutable cond_waiters : (unit -> unit) Queue.t }

let condition engine = { cengine = engine; cond_waiters = Queue.create () }

let wait c m =
  Process.suspend (fun resume ->
      Queue.add (fun () -> resume ()) c.cond_waiters;
      unlock m);
  lock m

let signal c =
  match Queue.take_opt c.cond_waiters with
  | None -> ()
  | Some wake -> ignore (Engine.schedule_after c.cengine ~delay:0 wake)

type semaphore = {
  sengine : Engine.t;
  total : int;
  mutable free : int;
  mutable sem_waiters : (unit -> unit) Queue.t;
}

let semaphore engine n =
  if n <= 0 then invalid_arg "Sync.semaphore: need at least one unit";
  { sengine = engine; total = n; free = n; sem_waiters = Queue.create () }

let acquire s =
  if s.free > 0 then s.free <- s.free - 1
  else Process.suspend (fun resume -> Queue.add (fun () -> resume ()) s.sem_waiters)

let release s =
  match Queue.take_opt s.sem_waiters with
  | Some wake ->
      (* hand the unit straight to the next waiter *)
      ignore (Engine.schedule_after s.sengine ~delay:0 wake)
  | None ->
      if s.free >= s.total then invalid_arg "Sync.release: all units already free";
      s.free <- s.free + 1

let available s = s.free

type 'k keyed_lock = {
  kengine : Engine.t;
  mutable held_keys : 'k list;
  mutable key_waiters : ('k * (unit -> unit)) list;  (** FIFO per key *)
}

let keyed_lock engine = { kengine = engine; held_keys = []; key_waiters = [] }

let start_request kl k =
  if not (List.mem k kl.held_keys) then kl.held_keys <- k :: kl.held_keys
  else
    Process.suspend (fun resume ->
        kl.key_waiters <- kl.key_waiters @ [ (k, fun () -> resume ()) ])

let end_request kl k =
  if not (List.mem k kl.held_keys) then invalid_arg "Sync.end_request: key not held";
  let rec find_waiter acc = function
    | [] -> None
    | (k', wake) :: rest ->
        if k' = k then Some (wake, List.rev_append acc rest) else find_waiter ((k', wake) :: acc) rest
  in
  match find_waiter [] kl.key_waiters with
  | None -> kl.held_keys <- List.filter (fun k' -> k' <> k) kl.held_keys
  | Some (wake, remaining) ->
      (* The key stays held and passes to the first waiter for it. *)
      kl.key_waiters <- remaining;
      ignore (Engine.schedule_after kl.kengine ~delay:0 wake)

let with_key kl k f =
  start_request kl k;
  Fun.protect ~finally:(fun () -> end_request kl k) f
