(* The network substrate: CRC, packets, links, topologies, network. *)

module Crc32 = Dcp_net.Crc32
module Packet = Dcp_net.Packet
module Link = Dcp_net.Link
module Topology = Dcp_net.Topology
module Network = Dcp_net.Network
module Engine = Dcp_sim.Engine
module Clock = Dcp_sim.Clock
module Rng = Dcp_rng.Rng

(* ---- CRC-32 ---- *)

let test_crc_known_vectors () =
  (* Standard IEEE CRC-32 check values. *)
  Alcotest.(check int32) "check string" 0xcbf43926l (Crc32.digest_string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest_string "");
  Alcotest.(check int32) "one byte" 0xe8b7be43l (Crc32.digest_string "a");
  Alcotest.(check int32) "pangram" 0x414fa339l
    (Crc32.digest_string "The quick brown fox jumps over the lazy dog")

(* The classic byte-at-a-time bitwise algorithm, as a reference the
   slicing-by-8 implementation must agree with on every length (tails of
   0..7 bytes take a different code path than whole 8-byte blocks). *)
let crc32_reference s =
  let crc = ref 0xffffffff in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xedb88320 else !crc lsr 1
      done)
    s;
  Int32.of_int (!crc lxor 0xffffffff)

let test_crc_slicing_matches_reference () =
  for len = 0 to 80 do
    let s = String.init len (fun i -> Char.chr ((i * 89 + len * 17) mod 256)) in
    Alcotest.(check int32)
      (Printf.sprintf "len=%d" len)
      (crc32_reference s) (Crc32.digest_string s)
  done

let prop_crc_slicing_matches_reference =
  QCheck2.Test.make ~name:"slicing-by-8 agrees with bitwise reference" ~count:300
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun s -> Int32.equal (crc32_reference s) (Crc32.digest_string s))

let test_crc_substring () =
  let s = "xxhelloxx" in
  Alcotest.(check int32) "string slice" (Crc32.digest_string "hello")
    (Crc32.digest_substring s ~pos:2 ~len:5);
  Alcotest.(check int32) "whole string" (Crc32.digest_string s)
    (Crc32.digest_substring s ~pos:0 ~len:(String.length s));
  Alcotest.check_raises "out of bounds" (Invalid_argument "Crc32.digest_substring") (fun () ->
      ignore (Crc32.digest_substring s ~pos:5 ~len:5))

let prop_crc_detects_single_bitflip =
  QCheck2.Test.make ~name:"CRC detects any single bit flip" ~count:300
    QCheck2.Gen.(pair (string_size (int_range 1 100)) (pair nat nat))
    (fun (s, (i, bit)) ->
      let i = i mod String.length s and bit = bit mod 8 in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      let damaged = Bytes.to_string b in
      String.equal damaged s || not (Int32.equal (Crc32.digest_string s) (Crc32.digest_string damaged)))

(* ---- Packets ---- *)

let test_fragment_roundtrip () =
  let body = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  let frags = Packet.fragment ~src:1 ~dst:2 ~msg_id:7 ~mtu:1024 body in
  Alcotest.(check int) "ceil(5000/1024) fragments" 5 (List.length frags);
  let r = Packet.Reassembly.create () in
  let result =
    List.fold_left
      (fun acc f -> match Packet.Reassembly.offer r ~now:0 f with Some x -> Some x | None -> acc)
      None frags
  in
  match result with
  | Some (src, reassembled) ->
      Alcotest.(check int) "src" 1 src;
      Alcotest.(check bool) "body intact" true (String.equal body reassembled)
  | None -> Alcotest.fail "never completed"

let test_fragment_empty_body () =
  let frags = Packet.fragment ~src:0 ~dst:1 ~msg_id:0 ~mtu:64 "" in
  Alcotest.(check int) "one empty fragment" 1 (List.length frags);
  let r = Packet.Reassembly.create () in
  match Packet.Reassembly.offer r ~now:0 (List.hd frags) with
  | Some (_, body) -> Alcotest.(check string) "empty body" "" body
  | None -> Alcotest.fail "no delivery"

let test_fragment_out_of_order_and_dupes () =
  let body = String.init 3000 (fun i -> Char.chr (i mod 251)) in
  let frags = Packet.fragment ~src:3 ~dst:4 ~msg_id:9 ~mtu:1000 body in
  let shuffled = List.rev frags @ [ List.hd frags; List.nth frags 1 ] in
  let r = Packet.Reassembly.create () in
  let completions = ref 0 in
  let out = ref "" in
  List.iter
    (fun f ->
      match Packet.Reassembly.offer r ~now:0 f with
      | Some (_, b) ->
          incr completions;
          out := b
      | None -> ())
    shuffled;
  Alcotest.(check int) "exactly one completion" 1 !completions;
  Alcotest.(check bool) "body intact" true (String.equal body !out)

let test_corruption_detected () =
  let rng = Rng.create ~seed:4 in
  let frag = List.hd (Packet.fragment ~src:0 ~dst:1 ~msg_id:1 ~mtu:64 "hello world") in
  Alcotest.(check bool) "starts intact" true (Packet.intact frag);
  let damaged = Packet.corrupt rng frag in
  Alcotest.(check bool) "corruption detected" false (Packet.intact damaged)

let test_reassembly_gc () =
  let body = String.make 3000 'x' in
  let frags = Packet.fragment ~src:0 ~dst:1 ~msg_id:2 ~mtu:1000 body in
  let r = Packet.Reassembly.create () in
  ignore (Packet.Reassembly.offer r ~now:(Clock.ms 1) (List.hd frags));
  Alcotest.(check int) "one pending" 1 (Packet.Reassembly.pending r);
  let dropped = Packet.Reassembly.drop_older_than r ~before:(Clock.ms 5) in
  Alcotest.(check int) "dropped" 1 dropped;
  Alcotest.(check int) "none pending" 0 (Packet.Reassembly.pending r)

let test_reassembly_rejects_count_mismatch () =
  let body = String.init 3000 (fun i -> Char.chr (i mod 256)) in
  let frags = Packet.fragment ~src:1 ~dst:2 ~msg_id:11 ~mtu:1000 body in
  let r = Packet.Reassembly.create () in
  (match Packet.Reassembly.offer r ~now:0 (List.hd frags) with
  | None -> ()
  | Some _ -> Alcotest.fail "one fragment cannot complete three");
  (* A corrupted header: payload CRC still valid, count lies.  Folding it
     in under the old count would truncate the message. *)
  let liar = { (List.nth frags 1) with Packet.count = 2 } in
  Alcotest.(check bool) "mismatched count rejected" true
    (Packet.Reassembly.offer r ~now:0 liar = None);
  Alcotest.(check int) "partial untouched" 1 (Packet.Reassembly.pending r);
  let result =
    List.fold_left
      (fun acc f ->
        match Packet.Reassembly.offer r ~now:0 f with Some (_, b) -> Some b | None -> acc)
      None (List.tl frags)
  in
  match result with
  | Some b -> Alcotest.(check bool) "true fragments still complete" true (String.equal b body)
  | None -> Alcotest.fail "never completed"

let test_reassembly_rejects_bad_geometry () =
  let r = Packet.Reassembly.create () in
  let f = List.hd (Packet.fragment ~src:0 ~dst:1 ~msg_id:3 ~mtu:64 "hi") in
  Alcotest.(check bool) "count=0" true
    (Packet.Reassembly.offer r ~now:0 { f with Packet.count = 0 } = None);
  Alcotest.(check bool) "negative count" true
    (Packet.Reassembly.offer r ~now:0 { f with Packet.count = -1; Packet.index = -2 } = None);
  Alcotest.(check bool) "negative index" true
    (Packet.Reassembly.offer r ~now:0 { f with Packet.index = -1 } = None);
  Alcotest.(check bool) "index beyond count" true
    (Packet.Reassembly.offer r ~now:0 { f with Packet.index = 1 } = None);
  Alcotest.(check int) "nothing buffered" 0 (Packet.Reassembly.pending r)

let prop_fragment_reassemble_roundtrip =
  QCheck2.Test.make ~name:"fragment/reassemble roundtrip for any body and MTU" ~count:200
    QCheck2.Gen.(pair (string_size (int_range 0 5000)) (int_range 1 700))
    (fun (body, mtu) ->
      let frags = Packet.fragment ~src:0 ~dst:1 ~msg_id:5 ~mtu body in
      let r = Packet.Reassembly.create () in
      let result =
        List.fold_left
          (fun acc f ->
            match Packet.Reassembly.offer r ~now:0 f with Some (_, b) -> Some b | None -> acc)
          None frags
      in
      match result with Some b -> String.equal b body | None -> false)

(* ---- Links ---- *)

let test_link_perfect () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    match Link.transmit Link.perfect rng ~size:100 with
    | Link.Deliver [ 0 ] -> ()
    | _ -> Alcotest.fail "perfect link must deliver instantly"
  done

let test_link_loss_rate () =
  let rng = Rng.create ~seed:2 in
  let link = { Link.perfect with loss = 0.25 } in
  let dropped = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    match Link.transmit link rng ~size:100 with Link.Drop -> incr dropped | _ -> ()
  done;
  let rate = float_of_int !dropped /. float_of_int n in
  Alcotest.(check bool) "~25% loss" true (Float.abs (rate -. 0.25) < 0.02)

let test_link_duplication () =
  let rng = Rng.create ~seed:3 in
  let link = { Link.perfect with duplicate = 1.0 } in
  match Link.transmit link rng ~size:10 with
  | Link.Deliver [ _; _ ] -> ()
  | _ -> Alcotest.fail "expected two copies"

let test_link_bandwidth_delay () =
  let rng = Rng.create ~seed:4 in
  let link = { Link.perfect with bandwidth = Some 1000 } in
  (* 500 bytes at 1000 B/s = 0.5 s *)
  match Link.transmit link rng ~size:500 with
  | Link.Deliver [ d ] -> Alcotest.(check int) "serialization delay" (Clock.of_float_s 0.5) d
  | _ -> Alcotest.fail "expected one delivery"

let test_link_compose () =
  let a = { Link.perfect with base_latency = Clock.ms 1; loss = 0.1 } in
  let b = { Link.perfect with base_latency = Clock.ms 2; loss = 0.1 } in
  let c = Link.compose a b in
  Alcotest.(check int) "latencies add" (Clock.ms 3) c.Link.base_latency;
  Alcotest.(check bool) "loss compounds" true (Float.abs (c.Link.loss -. 0.19) < 1e-9)

(* ---- Topology ---- *)

let test_topology_full_mesh () =
  let t = Topology.full_mesh ~n:4 Link.lan in
  Alcotest.(check int) "size" 4 (List.length (Topology.nodes t));
  Alcotest.(check bool) "self link perfect" true
    (Topology.link t ~src:2 ~dst:2 = Link.perfect);
  Alcotest.(check bool) "cross link is lan" true (Topology.link t ~src:0 ~dst:3 = Link.lan)

let test_topology_unknown_node () =
  let t = Topology.full_mesh ~n:2 Link.lan in
  Alcotest.check_raises "unknown node"
    (Invalid_argument "Topology.link: unknown destination node") (fun () ->
      ignore (Topology.link t ~src:0 ~dst:9))

let test_topology_clusters () =
  let t = Topology.clusters ~sizes:[ 2; 2 ] ~local:Link.lan ~long_haul:Link.wan in
  Alcotest.(check int) "four nodes" 4 (List.length (Topology.nodes t));
  (* cluster membership shows in the links: same cluster means the local link *)
  let same_cluster a b = Topology.link t ~src:a ~dst:b = Link.lan in
  Alcotest.(check bool) "node 0 cluster" true (same_cluster 0 1 && not (same_cluster 0 2));
  Alcotest.(check bool) "node 3 cluster" true (same_cluster 2 3 && not (same_cluster 1 3));
  let intra = Topology.link t ~src:0 ~dst:1 in
  let inter = Topology.link t ~src:0 ~dst:2 in
  Alcotest.(check bool) "intra is lan" true (intra = Link.lan);
  Alcotest.(check bool) "inter slower than intra" true
    (inter.Link.base_latency > intra.Link.base_latency)

(* ---- Network ---- *)

let make_net ?(link = Link.perfect) ~n () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:5 in
  let net = Network.create ~engine ~rng ~topology:(Topology.full_mesh ~n link) in
  (engine, net)

let test_network_delivery () =
  let engine, net = make_net ~n:2 () in
  let got = ref None in
  Network.set_handler net 1 (fun ~src body -> got := Some (src, body));
  Network.send net ~src:0 ~dst:1 "payload";
  Engine.run engine;
  Alcotest.(check (option (pair int string))) "delivered" (Some (0, "payload")) !got

let test_network_large_message_fragments () =
  let engine, net = make_net ~n:2 () in
  (* 10 KiB over the fixed 1024-byte MTU *)
  let body = String.init 10_240 (fun i -> Char.chr (i mod 256)) in
  let got = ref None in
  Network.set_handler net 1 (fun ~src:_ b -> got := Some b);
  Network.send net ~src:0 ~dst:1 body;
  Engine.run engine;
  Alcotest.(check bool) "reassembled" true (Some body = !got);
  let stats = Network.stats net in
  Alcotest.(check int) "ten fragments" 10 stats.Network.fragments_sent

let test_network_no_handler_discards () =
  let engine, net = make_net ~n:2 () in
  Network.send net ~src:0 ~dst:1 "void";
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 (Network.stats net).Network.messages_delivered

let test_network_partition () =
  let engine, net = make_net ~n:3 () in
  let inbox = ref [] in
  Network.set_handler net 1 (fun ~src:_ b -> inbox := b :: !inbox);
  Network.set_handler net 2 (fun ~src:_ b -> inbox := b :: !inbox);
  Network.partition net [ [ 0; 1 ]; [ 2 ] ];
  Alcotest.(check bool) "0-2 partitioned" true (Network.partitioned net ~src:0 ~dst:2);
  Alcotest.(check bool) "0-1 connected" false (Network.partitioned net ~src:0 ~dst:1);
  Network.send net ~src:0 ~dst:1 "ok";
  Network.send net ~src:0 ~dst:2 "blocked";
  Engine.run engine;
  Alcotest.(check (list string)) "only same side" [ "ok" ] !inbox;
  Network.heal net;
  Network.send net ~src:0 ~dst:2 "after heal";
  Engine.run engine;
  Alcotest.(check int) "heals" 2 (List.length !inbox)

let test_network_lossy_link_drops () =
  let engine, net = make_net ~link:{ Link.perfect with loss = 1.0 } ~n:2 () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 50 do
    Network.send net ~src:0 ~dst:1 "x"
  done;
  Engine.run engine;
  Alcotest.(check int) "all lost" 0 !got;
  Alcotest.(check int) "loss counted" 50 (Network.stats net).Network.fragments_lost

let test_network_corruption_dropped () =
  let engine, net = make_net ~link:{ Link.perfect with corrupt = 1.0 } ~n:2 () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 20 do
    Network.send net ~src:0 ~dst:1 "some payload"
  done;
  Engine.run engine;
  Alcotest.(check int) "all discarded by CRC" 0 !got;
  Alcotest.(check int) "corruptions counted" 20 (Network.stats net).Network.fragments_corrupted

let test_network_duplicates_deliver_twice () =
  let engine, net = make_net ~link:{ Link.perfect with duplicate = 1.0 } ~n:2 () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ _ -> incr got);
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  (* A duplicated single-fragment message completes reassembly twice: the
     network may deliver a message more than once, exactly as §3.4 allows.
     Receivers needing at-most-once must deduplicate themselves (Rpc). *)
  Alcotest.(check int) "duplicate delivers twice" 2 !got;
  Alcotest.(check int) "dup counted" 1 (Network.stats net).Network.fragments_duplicated

let test_network_jitter_reorders () =
  let link = { Link.perfect with base_latency = Clock.ms 1; jitter = Clock.ms 20 } in
  let engine, net = make_net ~link ~n:2 () in
  let order = ref [] in
  Network.set_handler net 1 (fun ~src:_ b -> order := b :: !order);
  for i = 0 to 19 do
    Network.send net ~src:0 ~dst:1 (string_of_int i)
  done;
  Engine.run engine;
  let arrived = List.rev !order in
  Alcotest.(check int) "all arrive" 20 (List.length arrived);
  let in_order = List.sort compare arrived = arrived in
  Alcotest.(check bool) "jitter reordered something" false in_order

let test_network_serialization_delay () =
  (* 10 KB/s and no latency: a fragment's delay is exactly its wire size
     over the bandwidth.  1500 bytes go as a 1024-byte and a 476-byte
     fragment, each charged on its own, so the message is whole when the
     larger one lands.  Nothing queues: two messages sent at once on one
     link, and one the other way, all land at that same instant. *)
  let engine, net = make_net ~link:{ Link.perfect with bandwidth = Some 10_000 } ~n:2 () in
  let arrivals = ref [] in
  let record ~src:_ _ = arrivals := Engine.now engine :: !arrivals in
  Network.set_handler net 0 record;
  Network.set_handler net 1 record;
  Network.send net ~src:0 ~dst:1 (String.make 1500 'x');
  Network.send net ~src:0 ~dst:1 (String.make 1500 'y');
  Network.send net ~src:1 ~dst:0 (String.make 1500 'z');
  Engine.run engine;
  Alcotest.(check int) "two fragments each" 6 (Network.stats net).Network.fragments_sent;
  let larger = 1024 + Packet.header_overhead in
  let at = Clock.of_float_s (float_of_int larger /. 10_000.) in
  Alcotest.(check (list int)) "each arrives at the larger fragment's serialization time"
    [ at; at; at ] !arrivals

let tests =
  [
    Alcotest.test_case "CRC known vectors" `Quick test_crc_known_vectors;
    Alcotest.test_case "CRC slicing vs reference" `Quick test_crc_slicing_matches_reference;
    QCheck_alcotest.to_alcotest prop_crc_slicing_matches_reference;
    Alcotest.test_case "CRC substring" `Quick test_crc_substring;
    QCheck_alcotest.to_alcotest prop_crc_detects_single_bitflip;
    Alcotest.test_case "fragment roundtrip" `Quick test_fragment_roundtrip;
    Alcotest.test_case "empty body" `Quick test_fragment_empty_body;
    Alcotest.test_case "out of order + dupes" `Quick test_fragment_out_of_order_and_dupes;
    Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
    Alcotest.test_case "reassembly GC" `Quick test_reassembly_gc;
    Alcotest.test_case "reassembly count mismatch" `Quick test_reassembly_rejects_count_mismatch;
    Alcotest.test_case "reassembly bad geometry" `Quick test_reassembly_rejects_bad_geometry;
    QCheck_alcotest.to_alcotest prop_fragment_reassemble_roundtrip;
    Alcotest.test_case "perfect link" `Quick test_link_perfect;
    Alcotest.test_case "loss rate" `Slow test_link_loss_rate;
    Alcotest.test_case "duplication" `Quick test_link_duplication;
    Alcotest.test_case "bandwidth delay" `Quick test_link_bandwidth_delay;
    Alcotest.test_case "compose" `Quick test_link_compose;
    Alcotest.test_case "full mesh" `Quick test_topology_full_mesh;
    Alcotest.test_case "unknown node" `Quick test_topology_unknown_node;
    Alcotest.test_case "clusters" `Quick test_topology_clusters;
    Alcotest.test_case "delivery" `Quick test_network_delivery;
    Alcotest.test_case "fragmentation" `Quick test_network_large_message_fragments;
    Alcotest.test_case "no handler discards" `Quick test_network_no_handler_discards;
    Alcotest.test_case "partition" `Quick test_network_partition;
    Alcotest.test_case "lossy link" `Quick test_network_lossy_link_drops;
    Alcotest.test_case "corruption dropped" `Quick test_network_corruption_dropped;
    Alcotest.test_case "fragment duplication re-delivers" `Quick test_network_duplicates_deliver_twice;
    Alcotest.test_case "jitter reorders" `Quick test_network_jitter_reorders;
    Alcotest.test_case "serialization delay per fragment" `Quick test_network_serialization_delay;
  ]
