(* The linearizability checker on hand-written histories: the oracle that
   judges the register scenarios is itself judged here, on cases small
   enough to verify by eye.  Accept cases pin down what a correct register
   may do (overlap reordering, pending-write uncertainty); reject cases pin
   down the violations the register_mutated self-test relies on (stale
   reads after an acknowledged write, new/old inversions). *)

module L = Dcp_check.Linearize
module Runtime = Dcp_core.Runtime
module Store = Dcp_stable.Store
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let ev ?reply ~client ~inv ~resp op = { L.client; op; reply; inv; resp }
let w ?reply ~client ~inv ~resp key v = ev ?reply ~client ~inv ~resp (L.Write (key, v))
let r ?reply ~client ~inv ~resp key = ev ?reply ~client ~inv ~resp (L.Read key)
let s ?reply ~client ~inv ~resp () = ev ?reply ~client ~inv ~resp L.Snapshot

let accepts name history =
  match L.check history with
  | Ok () -> ()
  | Error reason -> Alcotest.failf "%s: expected linearizable, got: %s" name reason

let rejects name ?affix history =
  match L.check history with
  | Ok () -> Alcotest.failf "%s: expected a violation, history accepted" name
  | Error reason -> (
      match affix with
      | None -> ()
      | Some affix ->
          let n = String.length affix and m = String.length reason in
          let rec at i = i + n <= m && (String.sub reason i n = affix || at (i + 1)) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: reason %S mentions %S" name reason affix)
            true (at 0))

let test_sequential_accepted () =
  accepts "empty" [];
  accepts "one write" [ w ~reply:L.Acked ~client:0 ~inv:0 ~resp:10 "x" 1 ];
  accepts "write then read"
    [
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:10 "x" 1;
      r ~reply:(L.Value_is (Some 1)) ~client:1 ~inv:20 ~resp:30 "x";
    ];
  accepts "unknown key before any write"
    [
      r ~reply:(L.Value_is None) ~client:1 ~inv:0 ~resp:5 "x";
      w ~reply:L.Acked ~client:0 ~inv:10 ~resp:20 "x" 1;
      r ~reply:(L.Value_is (Some 1)) ~client:1 ~inv:30 ~resp:40 "x";
    ];
  accepts "overwrites in order"
    [
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:10 "x" 1;
      w ~reply:L.Acked ~client:0 ~inv:20 ~resp:30 "x" 2;
      r ~reply:(L.Value_is (Some 2)) ~client:1 ~inv:40 ~resp:50 "x";
    ]

let test_overlap_reordering_accepted () =
  (* A read overlapping a write may see either side of it. *)
  accepts "overlapping read sees old value"
    [
      w ~reply:L.Acked ~client:0 ~inv:10 ~resp:50 "x" 1;
      r ~reply:(L.Value_is None) ~client:1 ~inv:20 ~resp:30 "x";
    ];
  accepts "overlapping read sees new value"
    [
      w ~reply:L.Acked ~client:0 ~inv:10 ~resp:50 "x" 1;
      r ~reply:(L.Value_is (Some 1)) ~client:1 ~inv:20 ~resp:30 "x";
    ];
  (* Two concurrent writes: reads fix their order, consistently. *)
  accepts "concurrent writes ordered by the reads"
    [
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:100 "x" 1;
      w ~reply:L.Acked ~client:1 ~inv:0 ~resp:100 "x" 2;
      r ~reply:(L.Value_is (Some 2)) ~client:2 ~inv:110 ~resp:120 "x";
    ]

let test_pending_writes_branch () =
  (* A timed-out write may have landed or not: both continuations accept. *)
  accepts "pending write took effect"
    [
      w ~client:0 ~inv:0 ~resp:max_int "x" 1;
      r ~reply:(L.Value_is (Some 1)) ~client:1 ~inv:10 ~resp:20 "x";
    ];
  accepts "pending write never landed"
    [
      w ~client:0 ~inv:0 ~resp:max_int "x" 1;
      r ~reply:(L.Value_is None) ~client:1 ~inv:10 ~resp:20 "x";
    ];
  accepts "pending write lands between two reads"
    [
      w ~client:0 ~inv:0 ~resp:max_int "x" 1;
      r ~reply:(L.Value_is None) ~client:1 ~inv:10 ~resp:20 "x";
      r ~reply:(L.Value_is (Some 1)) ~client:1 ~inv:30 ~resp:40 "x";
    ];
  (* ...but an applied write cannot un-apply. *)
  rejects "pending write cannot be read then vanish"
    [
      w ~client:0 ~inv:0 ~resp:max_int "x" 1;
      r ~reply:(L.Value_is (Some 1)) ~client:1 ~inv:10 ~resp:20 "x";
      r ~reply:(L.Value_is None) ~client:1 ~inv:30 ~resp:40 "x";
    ];
  (* Pending reads constrain nothing, even with impossible values around. *)
  accepts "pending read is discarded"
    [
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:10 "x" 1;
      r ~client:1 ~inv:20 ~resp:max_int "x";
    ]

let test_stale_read_rejected () =
  (* The fast-ack signature: the write is acknowledged, a strictly later
     read still sees the pre-write state. *)
  rejects "stale read after acked write" ~affix:"cannot be justified"
    [
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:10 "x" 1;
      r ~reply:(L.Value_is None) ~client:1 ~inv:20 ~resp:30 "x";
    ];
  rejects "read of an overwritten value" ~affix:"cannot be justified"
    [
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:10 "x" 1;
      w ~reply:L.Acked ~client:0 ~inv:20 ~resp:30 "x" 2;
      r ~reply:(L.Value_is (Some 1)) ~client:1 ~inv:40 ~resp:50 "x";
    ]

let test_new_old_inversion_rejected () =
  rejects "new/old inversion across readers"
    [
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:100 "x" 2;
      r ~reply:(L.Value_is (Some 2)) ~client:1 ~inv:10 ~resp:20 "x";
      r ~reply:(L.Value_is None) ~client:2 ~inv:30 ~resp:40 "x";
    ]

let test_per_key_independence () =
  (* Disjoint keys are independent objects: a violation names its key, and
     clean keys do not mask it. *)
  accepts "cross-key overlap is unconstrained"
    [
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:10 "x" 1;
      w ~reply:L.Acked ~client:1 ~inv:0 ~resp:10 "y" 2;
      r ~reply:(L.Value_is (Some 2)) ~client:2 ~inv:20 ~resp:30 "y";
      r ~reply:(L.Value_is (Some 1)) ~client:2 ~inv:40 ~resp:50 "x";
    ];
  rejects "violation names the broken key" ~affix:"key y:"
    [
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:10 "x" 1;
      r ~reply:(L.Value_is (Some 1)) ~client:1 ~inv:20 ~resp:30 "x";
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:10 "y" 2;
      r ~reply:(L.Value_is None) ~client:1 ~inv:20 ~resp:30 "y";
    ]

let test_snapshots () =
  accepts "snapshot sees the whole map"
    [
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:10 "x" 1;
      w ~reply:L.Acked ~client:0 ~inv:20 ~resp:30 "y" 2;
      s ~reply:(L.State_is [ ("x", 1); ("y", 2) ]) ~client:1 ~inv:40 ~resp:50 ();
    ];
  rejects "snapshot missing an acked write" ~affix:"cannot be justified"
    [
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:10 "x" 1;
      w ~reply:L.Acked ~client:0 ~inv:20 ~resp:30 "y" 2;
      s ~reply:(L.State_is [ ("x", 1) ]) ~client:1 ~inv:40 ~resp:50 ();
    ];
  rejects "snapshot new/old inversion"
    [
      w ~reply:L.Acked ~client:0 ~inv:0 ~resp:100 "x" 1;
      s ~reply:(L.State_is [ ("x", 1) ]) ~client:1 ~inv:10 ~resp:20 ();
      s ~reply:(L.State_is []) ~client:2 ~inv:30 ~resp:40 ();
    ]

let test_budget () =
  (* Many concurrent pending writes explode the branch space; a tiny budget
     must surface as a budget error, not an accept/reject verdict. *)
  let history =
    List.init 12 (fun i -> w ~client:i ~inv:0 ~resp:max_int "x" i)
    @ [ r ~reply:(L.Value_is (Some 0)) ~client:20 ~inv:10 ~resp:20 "x" ]
  in
  match L.check ~max_states:3 history with
  | Error reason ->
      Alcotest.(check bool)
        (Printf.sprintf "reason %S names the budget" reason)
        true
        (String.length reason >= 6 && String.sub reason 0 6 = "search")
  | Ok () -> Alcotest.fail "expected a budget error"

let test_encode_roundtrip () =
  let events =
    [
      w ~reply:L.Acked ~client:3 ~inv:17 ~resp:23 "x0" 42;
      w ~client:1 ~inv:5 ~resp:max_int "k" 7;
      r ~reply:(L.Value_is (Some 9)) ~client:0 ~inv:1 ~resp:2 "x1";
      r ~reply:(L.Value_is None) ~client:0 ~inv:1 ~resp:2 "x1";
      r ~client:2 ~inv:8 ~resp:max_int "x2";
      s ~reply:(L.State_is [ ("a", 1); ("b", 2) ]) ~client:1 ~inv:3 ~resp:4 ();
      s ~reply:(L.State_is []) ~client:1 ~inv:3 ~resp:4 ();
      s ~client:1 ~inv:3 ~resp:max_int ();
    ]
  in
  (* Round-trip through the public capture path: a guardian records every
     event into its store, and the oracle reads them back. *)
  let world =
    Runtime.create_world ~seed:1 ~topology:(Topology.full_mesh ~n:1 Link.perfect) ()
  in
  let captured = ref None in
  Runtime.register_def world
    {
      Runtime.def_name = "history_recorder";
      provides = [];
      init =
        (fun ctx _ ->
          List.iteri (fun seq e -> L.record ctx ~seq e) events;
          captured := Some (Runtime.store ctx));
      recover = None;
    };
  ignore (Runtime.create_guardian world ~at:0 ~def_name:"history_recorder" ~args:[]);
  Runtime.run world;
  match !captured with
  | None -> Alcotest.fail "recorder never ran"
  | Some store ->
      let decoded = L.events_in_store store in
      Alcotest.(check int) "roundtrip preserves the event" (List.length events)
        (List.length decoded);
      Alcotest.(check bool) "decoded equals original" true (decoded = events);
      Store.set store ~key:"h:999999" "w not an event";
      Alcotest.(check bool) "garbage does not decode" true (L.events_in_store store = events)

let tests =
  [
    Alcotest.test_case "sequential histories accepted" `Quick test_sequential_accepted;
    Alcotest.test_case "overlap reordering accepted" `Quick test_overlap_reordering_accepted;
    Alcotest.test_case "pending writes branch" `Quick test_pending_writes_branch;
    Alcotest.test_case "stale read rejected" `Quick test_stale_read_rejected;
    Alcotest.test_case "new/old inversion rejected" `Quick test_new_old_inversion_rejected;
    Alcotest.test_case "per-key independence" `Quick test_per_key_independence;
    Alcotest.test_case "snapshot histories" `Quick test_snapshots;
    Alcotest.test_case "budget overrun is reported" `Quick test_budget;
    Alcotest.test_case "event encoding roundtrips" `Quick test_encode_roundtrip;
  ]
