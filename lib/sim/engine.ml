type timer = {
  time : Clock.time;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
  mutable fired : bool;
  owner : t;
}

and t = {
  mutable clock : Clock.time;
  mutable next_seq : int;
  mutable executed : int;
  mutable live : int;  (** scheduled, not yet fired or cancelled *)
  queue : timer Heap.t;
}

let compare_timer a b =
  let c = Clock.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  { clock = Clock.zero; next_seq = 0; executed = 0; live = 0; queue = Heap.create ~cmp:compare_timer }

let now t = t.clock

let schedule t ~at action =
  let at = if Clock.compare at t.clock < 0 then t.clock else at in
  let timer = { time = at; seq = t.next_seq; action; cancelled = false; fired = false; owner = t } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  Heap.push t.queue timer;
  timer

let schedule_after t ~delay action = schedule t ~at:(Clock.add t.clock delay) action

let cancel timer =
  if not (timer.cancelled || timer.fired) then begin
    timer.cancelled <- true;
    timer.owner.live <- timer.owner.live - 1
  end

(* [live] is kept exact by [schedule]/[cancel]/[step], so this is O(1);
   cancelled timers still occupy the heap until popped but are not counted. *)
let pending t = t.live

let rec step t =
  match Heap.pop t.queue with
  | None -> false
  | Some ev ->
      if ev.cancelled then step t
      else begin
        ev.fired <- true;
        t.live <- t.live - 1;
        t.clock <- ev.time;
        t.executed <- t.executed + 1;
        ev.action ();
        true
      end

let run t = while step t do () done

let run_until t limit =
  let continue = ref true in
  while !continue do
    match Heap.peek t.queue with
    | None -> continue := false
    | Some ev ->
        if Clock.compare ev.time limit > 0 then continue := false
        else if not (step t) then continue := false
  done;
  if Clock.compare t.clock limit < 0 then t.clock <- limit

let run_for t d = run_until t (Clock.add t.clock d)
let events_executed t = t.executed

let next_time t = Option.map (fun ev -> ev.time) (Heap.peek t.queue)
