(* Coverage fills: rendering paths, small helpers, and cross-module edges
   not exercised elsewhere. *)

open Dcp_wire
module Metrics = Dcp_sim.Metrics
module Clock = Dcp_sim.Clock
module Topology = Dcp_net.Topology
module Link = Dcp_net.Link

let test_metrics_report_renders () =
  let r = Metrics.registry () in
  Metrics.incr (Metrics.counter r "events");
  Metrics.set_gauge (Metrics.gauge r "depth") 1.5;
  Metrics.observe (Metrics.histogram r "lat") 42.0;
  let rendered = Format.asprintf "%a" Metrics.pp_report r in
  List.iter
    (fun needle ->
      let found =
        let n = String.length rendered and m = String.length needle in
        let rec scan i =
          i + m <= n && (String.equal (String.sub rendered i m) needle || scan (i + 1))
        in
        scan 0
      in
      if not found then Alcotest.failf "report missing %S in %s" needle rendered)
    [ "events"; "depth"; "lat"; "p95" ]

let test_topology_custom () =
  let slow = { Link.perfect with base_latency = Clock.ms 9 } in
  let t =
    Topology.custom ~nodes:[ 10; 20 ] (fun ~src ~dst ->
        if src < dst then Link.perfect else slow)
  in
  Alcotest.(check bool) "asymmetric links allowed" true
    (Topology.link t ~src:10 ~dst:20 <> Topology.link t ~src:20 ~dst:10);
  Alcotest.(check bool) "membership" true (Topology.link t ~src:20 ~dst:20 = Link.perfect);
  Alcotest.check_raises "non-member" (Invalid_argument "Topology.link: unknown destination node")
    (fun () -> ignore (Topology.link t ~src:10 ~dst:30))

let test_port_name_rendering_and_order () =
  let a = Port_name.make ~node:1 ~guardian:2 ~index:3 ~uid:4 in
  let b = Port_name.make ~node:1 ~guardian:2 ~index:3 ~uid:5 in
  Alcotest.(check string) "to_string" "port<n1.g2.p3#4>" (Port_name.to_string a);
  Alcotest.(check bool) "compare orders by uid last" true (Port_name.compare a b < 0);
  Alcotest.(check bool) "equal self" true (Port_name.equal a a);
  Alcotest.(check bool) "hash stable" true (Port_name.hash a = Port_name.hash a)

let test_vtype_overloaded_command () =
  let pt =
    [ Vtype.signature "ping" []; Vtype.signature "ping" [ Vtype.Tint ] ]
  in
  Alcotest.(check bool) "nullary form" true
    (Result.is_ok (Vtype.check_message pt ~command:"ping" []));
  Alcotest.(check bool) "unary form" true
    (Result.is_ok (Vtype.check_message pt ~command:"ping" [ Value.int 7 ]));
  Alcotest.(check bool) "binary form rejected" true
    (Result.is_error (Vtype.check_message pt ~command:"ping" [ Value.int 7; Value.int 8 ]))

let test_vtype_port_type_rendering () =
  let pt =
    [ Vtype.signature "reserve" [ Vtype.Tint ] ~replies:[ Vtype.reply "ok" [] ] ]
  in
  Alcotest.(check string) "pp_port_type"
    "port [reserve(int) replies (ok())]"
    (Format.asprintf "%a" Vtype.pp_port_type pt)

let test_codec_1979_config_shape () =
  let fits config i = Result.is_ok (Codec.encode ~config (Value.int i)) in
  Alcotest.(check bool) "24-bit max in" true (fits Codec.config_1979 8_388_607);
  Alcotest.(check bool) "24-bit min in" true (fits Codec.config_1979 (-8_388_608));
  Alcotest.(check bool) "63-bit config accepts max_int" true (fits Codec.default_config max_int)

let test_value_token_port_accessors () =
  let p = Port_name.make ~node:0 ~guardian:1 ~index:0 ~uid:2 in
  let tok = Token.seal ~secret:9L ~owner:1 ~obj:5 in
  Alcotest.(check bool) "port roundtrip" true (Port_name.equal p (Value.get_port (Value.port p)));
  Alcotest.(check bool) "token roundtrip" true
    (match Value.token tok with Value.Tokenv t -> Token.equal tok t | _ -> false);
  Alcotest.(check bool) "named payload" true
    (match Value.Named ("t", Value.unit) with
    | Value.Named (name, v) -> String.equal name "t" && Value.equal v Value.Unit
    | _ -> false)

let tests =
  [
    Alcotest.test_case "metrics report renders" `Quick test_metrics_report_renders;
    Alcotest.test_case "topology custom" `Quick test_topology_custom;
    Alcotest.test_case "port name rendering/order" `Quick test_port_name_rendering_and_order;
    Alcotest.test_case "overloaded command" `Quick test_vtype_overloaded_command;
    Alcotest.test_case "port type rendering" `Quick test_vtype_port_type_rendering;
    Alcotest.test_case "value port/token accessors" `Quick test_value_token_port_accessors;
    Alcotest.test_case "1979 codec bounds" `Quick test_codec_1979_config_shape;
  ]
