(* Wall-clock spans recorded around the benchmark's own calls into each
   layer.

   Recording is off unless [enable] was called (the traced run).  When on,
   every span updates a per-name aggregate — count, total and self wall
   time, minor words — and keeps its duration in a bounded reservoir for
   percentiles.  The first [capacity] stack spans and [op_capacity] client
   ops are also kept whole, for export as Chrome trace-event JSON once the
   run ends.  Memory is therefore bounded whatever the run length.

   Stack spans nest: a span's self time is its duration minus the time of
   the spans opened inside it.  Client ops are asynchronous (they stay open
   across many [sim.run] slices), so they are recorded beside the stack,
   in both wall and virtual time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let capacity = 20_000
let op_capacity = 20_000
let reservoir = 65_536

type agg = {
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable words : float;
  mutable durs : int array;  (** first [reservoir] durations *)
}

type kept =
  | Stack of { name : string; start : int; dur : int; words : float; depth : int }
  | Op of { id : int; start : int; stop : int; vt0 : int; vt1 : int; words : float }

let on = ref false
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 16
let order : string list ref = ref []
let kept : kept list ref = ref []
let kept_stack = ref 0
let kept_ops = ref 0
let dropped = ref 0
let origin = ref 0

(* The open-span stack. *)
let max_depth = 32
let st_name = Array.make max_depth ""
let st_start = Array.make max_depth 0
let st_words = Array.make max_depth 0.
let st_child = Array.make max_depth 0
let depth = ref 0
let open_ops : (int, int * float) Hashtbl.t = Hashtbl.create 1024

let enable () =
  on := true;
  origin := now_ns ()

let enabled () = !on

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
      let a = { count = 0; total_ns = 0; self_ns = 0; words = 0.; durs = [||] } in
      Hashtbl.add aggs name a;
      order := name :: !order;
      a

let note a dur =
  if a.count < reservoir then begin
    if a.count >= Array.length a.durs then begin
      let grown = Array.make (Int.min reservoir (Int.max 64 (2 * a.count))) 0 in
      Array.blit a.durs 0 grown 0 a.count;
      a.durs <- grown
    end;
    a.durs.(a.count) <- dur
  end;
  a.count <- a.count + 1

let enter name =
  if !on then begin
    let d = !depth in
    if d >= max_depth then failwith "Spans.enter: spans nested too deep";
    st_name.(d) <- name;
    st_child.(d) <- 0;
    st_words.(d) <- Gc.minor_words ();
    st_start.(d) <- now_ns ();
    depth := d + 1
  end

let leave () =
  if !on then begin
    let stop = now_ns () in
    let d = !depth - 1 in
    if d < 0 then failwith "Spans.leave: no open span";
    depth := d;
    let dur = stop - st_start.(d) in
    let words = Gc.minor_words () -. st_words.(d) in
    let a = agg st_name.(d) in
    note a dur;
    a.total_ns <- a.total_ns + dur;
    a.self_ns <- a.self_ns + dur - st_child.(d);
    a.words <- a.words +. words;
    if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
    if !kept_stack < capacity then begin
      incr kept_stack;
      kept := Stack { name = st_name.(d); start = st_start.(d); dur; words; depth = d } :: !kept
    end
    else incr dropped
  end

(* A measurement made outside the stack (a sampled per-call cost): adds a
   kept span of the given total duration, ending now. *)
let record name ~dur ~words =
  if !on then begin
    let a = agg name in
    note a dur;
    a.total_ns <- a.total_ns + dur;
    a.self_ns <- a.self_ns + dur;
    a.words <- a.words +. words;
    if !depth > 0 then st_child.(!depth - 1) <- st_child.(!depth - 1) + dur;
    if !kept_stack < capacity then begin
      incr kept_stack;
      kept := Stack { name; start = now_ns () - dur; dur; words; depth = !depth } :: !kept
    end
    else incr dropped
  end

let op_begin id =
  if !on then Hashtbl.replace open_ops id (now_ns (), Gc.minor_words ())

let op_end id ~vt0 ~vt1 =
  if !on then
    match Hashtbl.find_opt open_ops id with
    | None -> ()
    | Some (start, w0) ->
        Hashtbl.remove open_ops id;
        let stop = now_ns () in
        let words = Gc.minor_words () -. w0 in
        let a = agg "op" in
        note a (stop - start);
        a.total_ns <- a.total_ns + (stop - start);
        a.words <- a.words +. words;
        if !kept_ops < op_capacity then begin
          incr kept_ops;
          kept := Op { id; start; stop; vt0; vt1; words } :: !kept
        end
        else incr dropped

(* Forget the ops of a finished repetition that never completed. *)
let reset_ops () = Hashtbl.reset open_ops

let find name = Hashtbl.find_opt aggs name

let words_per_call name =
  match find name with Some a when a.count > 0 -> a.words /. float_of_int a.count | _ -> 0.

let quantile_ns name q =
  match find name with
  | Some a when a.count > 0 ->
      let n = Int.min a.count reservoir in
      let sorted = Array.sub a.durs 0 n in
      Array.sort Int.compare sorted;
      let rank = Int.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      float_of_int sorted.(rank - 1)
  | _ -> 0.

(* One line per span name: count, total, self, words — for the log. *)
let summary () =
  List.rev_map
    (fun name ->
      let a = Hashtbl.find aggs name in
      Printf.sprintf "span %-18s n=%-8d total=%.3fs self=%.3fs words/call=%.1f" name a.count
        (float_of_int a.total_ns /. 1e9)
        (float_of_int a.self_ns /. 1e9)
        (if a.count = 0 then 0. else a.words /. float_of_int a.count))
    !order

(* Chrome trace-event JSON (chrome://tracing, Perfetto): stack spans as
   complete events on thread 1, client ops as async begin/end pairs on
   thread 2 carrying their virtual times. *)
let write_chrome path =
  let oc = open_out path in
  let us ns = float_of_int (ns - !origin) /. 1e3 in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc s
  in
  List.iter
    (function
      | Stack { name; start; dur; words; depth } ->
          emit
            (Printf.sprintf
               "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
                \"args\":{\"minor_words\":%.0f,\"depth\":%d}}"
               name (us start) (float_of_int dur /. 1e3) words depth)
      | Op { id; start; stop; vt0; vt1; words } ->
          emit
            (Printf.sprintf
               "{\"name\":\"op\",\"cat\":\"op\",\"ph\":\"b\",\"id\":%d,\"pid\":1,\"tid\":2,\
                \"ts\":%.3f,\"args\":{\"vt_start_ms\":%.6f}}"
               id (us start) (float_of_int vt0 /. 1e6));
          emit
            (Printf.sprintf
               "{\"name\":\"op\",\"cat\":\"op\",\"ph\":\"e\",\"id\":%d,\"pid\":1,\"tid\":2,\
                \"ts\":%.3f,\"args\":{\"vt_end_ms\":%.6f,\"minor_words\":%.0f}}"
               id (us stop) (float_of_int vt1 /. 1e6) words))
    (List.rev !kept);
  Printf.fprintf oc "],\"otherData\":{\"dropped_spans\":%d}}\n" !dropped;
  close_out oc
