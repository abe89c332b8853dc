(* Two parallel arrays hold the retained events; both start empty and grow
   by doubling from [first_chunk] slots to [capacity], so a trace that
   records little costs little.  Until the arrays reach [capacity] no
   record has been overwritten, slots [0, total) hold the events in order
   and [next = total]; afterwards [next] is the oldest slot. *)
type 'e t = {
  capacity : int;
  category : 'e -> string;
  detail : Format.formatter -> 'e -> unit;
  mutable ats : Clock.time array;
  mutable evs : 'e array;
  mutable next : int;
  mutable total : int;
}

let first_chunk = 64

let create ?(capacity = 16384) ~category ~detail () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; category; detail; ats = [||]; evs = [||]; next = 0; total = 0 }

(* [e] fills the fresh slots: a polymorphic array needs some element, and
   every slot past the blit is written before it is read. *)
let grow t e =
  let len = Array.length t.evs in
  let len' = Int.min t.capacity (if len = 0 then first_chunk else 2 * len) in
  let ats = Array.make len' 0 and evs = Array.make len' e in
  Array.blit t.ats 0 ats 0 len;
  Array.blit t.evs 0 evs 0 len;
  t.ats <- ats;
  t.evs <- evs

let record t ~at e =
  let i = t.next in
  if i = Array.length t.evs then grow t e;
  t.ats.(i) <- at;
  t.evs.(i) <- e;
  t.next <- (if i + 1 = t.capacity then 0 else i + 1);
  t.total <- t.total + 1

let size t = Int.min t.total t.capacity
let total t = t.total

let events t =
  let n = size t in
  let start = if t.total <= t.capacity then 0 else t.next in
  List.init n (fun k ->
      let i = (start + k) mod t.capacity in
      (t.ats.(i), t.evs.(i)))

let find t ~category =
  List.filter (fun (_, e) -> String.equal (t.category e) category) (events t)

let pp fmt t =
  List.iter
    (fun (at, e) -> Format.fprintf fmt "[%a] %-16s %a@." Clock.pp at (t.category e) t.detail e)
    (events t)
