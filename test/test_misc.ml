(* Coverage fills: rendering paths, small helpers, and cross-module edges
   not exercised elsewhere. *)

open Dcp_wire
module Metrics = Dcp_sim.Metrics
module Network = Dcp_net.Network
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

let test_port_name_rendering_and_order () =
  let a = Port_name.make ~node:1 ~guardian:2 ~index:3 ~uid:4 in
  let b = Port_name.make ~node:1 ~guardian:2 ~index:3 ~uid:5 in
  Alcotest.(check string) "to_string" "port<n1.g2.p3#4>" (Port_name.to_string a);
  Alcotest.(check bool) "compare orders by uid last" true (Port_name.compare a b < 0);
  Alcotest.(check bool) "equal self" true (Port_name.equal a a)

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

let test_network_mtu_constant () =
  (* The MTU is system-wide: 1024 payload bytes per fragment. *)
  let fragments_for len =
    let net =
      Network.create ~engine:(Dcp_sim.Engine.create ()) ~rng:(Dcp_rng.Rng.create ~seed:1)
        ~topology:(Topology.full_mesh ~n:2 Link.perfect)
    in
    Network.send net ~src:0 ~dst:1 (String.make len 'x');
    (Network.stats net).Network.fragments_sent
  in
  Alcotest.(check int) "1024 bytes fit one fragment" 1 (fragments_for 1024);
  Alcotest.(check int) "1025 bytes need two" 2 (fragments_for 1025)

let test_codec_exn_forms_default_config () =
  (* The raising forms always use the default config, which takes what the
     1979 config refuses. *)
  let long = Value.str (String.make 5000 'x') in
  Alcotest.(check bool) "1979 config refuses a 5000-byte string" true
    (Result.is_error (Codec.encode ~config:Codec.config_1979 long));
  Alcotest.(check bool) "encode_exn/decode_exn round-trip it" true
    (Value.equal long (Codec.decode_exn (Codec.encode_exn long)));
  Alcotest.(check bool) "max_int round-trips" true
    (Value.equal (Value.int max_int) (Codec.decode_exn (Codec.encode_exn (Value.int max_int))));
  match Codec.decode_exn "\255" with
  | _ -> Alcotest.fail "decode_exn accepted junk"
  | exception Codec.Codec_error _ -> ()

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
    Alcotest.test_case "port name rendering/order" `Quick test_port_name_rendering_and_order;
    Alcotest.test_case "overloaded command" `Quick test_vtype_overloaded_command;
    Alcotest.test_case "value port/token accessors" `Quick test_value_token_port_accessors;
    Alcotest.test_case "network mtu constant" `Quick test_network_mtu_constant;
    Alcotest.test_case "codec exn forms use the default config" `Quick
      test_codec_exn_forms_default_config;
    Alcotest.test_case "1979 codec bounds" `Quick test_codec_1979_config_shape;
  ]
