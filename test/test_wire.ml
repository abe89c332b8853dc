(* The wire layer: values, types, codec, tokens, transmittable types. *)

open Dcp_wire
module Rng = Dcp_rng.Rng

(* ---- Value ---- *)

let test_value_accessors () =
  Alcotest.(check int) "int" 42 (Value.get_int (Value.int 42));
  Alcotest.(check string) "str" "x" (Value.get_str (Value.str "x"));
  Alcotest.(check bool) "bool" true (Value.get_bool (Value.bool true));
  Alcotest.(check (float 1e-9)) "real" 2.5
    (match Value.real 2.5 with Value.Real r -> r | _ -> Float.nan);
  Alcotest.check_raises "wrong accessor raises"
    (Value.Type_mismatch "int expected, got \"x\"") (fun () ->
      ignore (Value.get_int (Value.str "x")))

let test_value_field () =
  let v = Value.record [ ("a", Value.int 1); ("b", Value.str "two") ] in
  Alcotest.(check int) "field a" 1 (Value.get_int (Value.field v "a"));
  Alcotest.check_raises "missing field" (Value.Type_mismatch "missing field z") (fun () ->
      ignore (Value.field v "z"))

let test_value_equal () =
  let v1 = Value.tuple [ Value.int 1; Value.list [ Value.str "a" ] ] in
  let v2 = Value.tuple [ Value.int 1; Value.list [ Value.str "a" ] ] in
  let v3 = Value.tuple [ Value.int 2; Value.list [ Value.str "a" ] ] in
  Alcotest.(check bool) "equal" true (Value.equal v1 v2);
  Alcotest.(check bool) "not equal" false (Value.equal v1 v3)

let test_value_pp () =
  let v =
    Value.record [ ("n", Value.int 3); ("opt", Value.option (Some (Value.bool false))) ]
  in
  Alcotest.(check string) "render" "{n=3; opt=some(false)}" (Value.to_string v)

(* ---- Vtype ---- *)

let test_vtype_check_builtin () =
  let ok t v = Alcotest.(check bool) "accepts" true (Result.is_ok (Vtype.check t v)) in
  let bad t v = Alcotest.(check bool) "rejects" true (Result.is_error (Vtype.check t v)) in
  ok Vtype.Tint (Value.int 1);
  bad Vtype.Tint (Value.str "1");
  ok (Vtype.Tlist Vtype.Tint) (Value.list [ Value.int 1; Value.int 2 ]);
  bad (Vtype.Tlist Vtype.Tint) (Value.list [ Value.int 1; Value.str "2" ]);
  ok (Vtype.Toption Vtype.Tstr) (Value.option None);
  ok (Vtype.Toption Vtype.Tstr) (Value.option (Some (Value.str "s")));
  bad (Vtype.Toption Vtype.Tstr) (Value.option (Some (Value.int 0)));
  ok Vtype.Tany (Value.tuple [ Value.int 1; Value.str "x" ]);
  ok
    (Vtype.Ttuple [ Vtype.Tint; Vtype.Tstr ])
    (Value.tuple [ Value.int 1; Value.str "x" ]);
  bad (Vtype.Ttuple [ Vtype.Tint; Vtype.Tstr ]) (Value.tuple [ Value.int 1 ]);
  ok
    (Vtype.Trecord [ ("a", Vtype.Tint) ])
    (Value.record [ ("a", Value.int 1) ]);
  bad (Vtype.Trecord [ ("a", Vtype.Tint) ]) (Value.record [ ("b", Value.int 1) ])

let test_vtype_named () =
  let t = Vtype.Tnamed "complex" in
  Alcotest.(check bool) "named accepts matching" true
    (Result.is_ok (Vtype.check t (Value.Named ("complex", Value.unit))));
  Alcotest.(check bool) "named rejects other" true
    (Result.is_error (Vtype.check t (Value.Named ("other", Value.unit))))

let test_check_message () =
  let pt =
    [ Vtype.signature "reserve" [ Vtype.Tstr; Vtype.Tint ] ]
  in
  Alcotest.(check bool) "good message" true
    (Result.is_ok (Vtype.check_message pt ~command:"reserve" [ Value.str "p"; Value.int 3 ]));
  Alcotest.(check bool) "wrong arity" true
    (Result.is_error (Vtype.check_message pt ~command:"reserve" [ Value.str "p" ]));
  Alcotest.(check bool) "wrong type" true
    (Result.is_error (Vtype.check_message pt ~command:"reserve" [ Value.int 0; Value.int 3 ]));
  Alcotest.(check bool) "unknown command" true
    (Result.is_error (Vtype.check_message pt ~command:"unknown" []));
  Alcotest.(check bool) "implicit failure accepted" true
    (Result.is_ok (Vtype.check_message pt ~command:"failure" [ Value.str "reason" ]))

let test_check_message_wildcard () =
  let pt = [ Vtype.wildcard ] in
  Alcotest.(check bool) "wildcard accepts anything" true
    (Result.is_ok (Vtype.check_message pt ~command:"whatever" [ Value.int 1 ]))

(* ---- Codec ---- *)

let sample_port = Port_name.make ~node:1 ~guardian:2 ~index:3 ~uid:99
let sample_token = Token.seal ~secret:42L ~owner:7 ~obj:123

let roundtrip ?config v =
  match Codec.encode ?config v with
  | Error e -> Alcotest.failf "encode failed: %a" Codec.pp_error e
  | Ok s -> (
      match Codec.decode ?config s with
      | Error e -> Alcotest.failf "decode failed: %a" Codec.pp_error e
      | Ok v' -> v')

let test_codec_roundtrip_basics () =
  let values =
    [
      Value.unit;
      Value.bool true;
      Value.bool false;
      Value.int 0;
      Value.int (-1);
      Value.int max_int;
      Value.int min_int;
      Value.real 3.14159;
      Value.real Float.infinity;
      Value.str "";
      Value.str "hello\x00world";
      Value.list [ Value.int 1; Value.str "x" ];
      Value.tuple [];
      Value.record [ ("k", Value.unit) ];
      Value.option None;
      Value.option (Some (Value.int 5));
      Value.port sample_port;
      Value.token sample_token;
      Value.Named ("t", Value.int 1);
    ]
  in
  List.iter
    (fun v ->
      let v' = roundtrip v in
      if not (Value.equal v v') then
        Alcotest.failf "roundtrip mismatch: %a vs %a" Value.pp v Value.pp v')
    values

let test_codec_nan_roundtrip () =
  match roundtrip (Value.real Float.nan) with
  | Value.Real r -> Alcotest.(check bool) "NaN preserved" true (Float.is_nan r)
  | _ -> Alcotest.fail "expected real"

let test_codec_int_bounds () =
  let config = Codec.config_1979 in
  Alcotest.(check bool) "2^23-1 fits" true
    (Result.is_ok (Codec.encode ~config (Value.int 8_388_607)));
  Alcotest.(check bool) "-2^23 fits" true
    (Result.is_ok (Codec.encode ~config (Value.int (-8_388_608))));
  (match Codec.encode ~config (Value.int 8_388_608) with
  | Error (Codec.Int_out_of_bounds _) -> ()
  | _ -> Alcotest.fail "2^23 must be rejected");
  match Codec.encode ~config (Value.int (-8_388_609)) with
  | Error (Codec.Int_out_of_bounds _) -> ()
  | _ -> Alcotest.fail "-2^23-1 must be rejected"

let test_codec_string_limit () =
  let config = { Codec.config_1979 with max_string = 4 } in
  match Codec.encode ~config (Value.str "hello") with
  | Error (Codec.String_too_long 5) -> ()
  | _ -> Alcotest.fail "long string must be rejected"

let test_codec_message_limit () =
  let config = { Codec.default_config with max_message = 16 } in
  match Codec.encode ~config (Value.str (String.make 64 'x')) with
  | Error (Codec.Message_too_long _) -> ()
  | _ -> Alcotest.fail "long message must be rejected"

let test_codec_malformed_input () =
  (match Codec.decode "\xff" with
  | Error (Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "unknown tag must fail");
  (match Codec.decode "" with
  | Error (Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "empty must fail");
  (* Truncated: an Int tag with no payload. *)
  match Codec.decode "\x03" with
  | Error (Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "truncated must fail"

let test_codec_adversarial_length () =
  (* A string tag followed by a varint length of 2^62-1: adding it to the
     read position wraps negative, so a sum-based bounds check would pass
     and the decoder would die in String.sub.  Must be a clean Malformed. *)
  let huge = "\x05\xff\xff\xff\xff\xff\xff\xff\xff\x3f" in
  (match Codec.decode huge with
  | Error (Codec.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "absurd length accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Codec.pp_error e);
  (* and a varint that decodes to a negative length outright *)
  let negative = "\x05\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  match Codec.decode negative with
  | Error (Codec.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "negative length accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Codec.pp_error e

(* Collection counts are varints too: one that decodes negative is corrupt
   input, for lists, tuples and records alike, not a crash in List.init. *)
let test_codec_negative_count () =
  List.iter
    (fun tag ->
      match Codec.decode (tag ^ "\xff\xff\xff\xff\xff\xff\xff\xff\x7f") with
      | Error (Codec.Malformed _) -> ()
      | Ok _ -> Alcotest.fail "negative count accepted"
      | Error e -> Alcotest.failf "wrong error: %a" Codec.pp_error e)
    [ "\x06"; "\x07"; "\x08" ]

let envelope_bytes ?config (target, command, args, reply_to, sent_at) =
  Codec.encode ?config
    (Dcp_core.Message.envelope ~target { Dcp_core.Message.command; args; reply_to; sent_at })

let test_codec_encoder_reuse () =
  let enc = Codec.encoder () in
  let encode_with enc (target, command, args, reply_to, sent_at) =
    Codec.encode_envelope enc ~target ~command ~args ~reply_to ~sent_at
  in
  let envelopes =
    [
      (sample_port, "ping", [], Some sample_port, 0);
      (sample_port, "big", [ Value.str (String.make 300 'x') ], None, 1_000_000);
      ( sample_port,
        "mixed",
        [ Value.record [ ("p", Value.port sample_port); ("t", Value.token sample_token) ] ],
        None,
        -5 );
      (sample_port, "", [ Value.str "" ], Some sample_port, max_int);
    ]
  in
  (* same bytes as encoding the envelope record, across reuse of one handle *)
  List.iter
    (fun e ->
      Alcotest.(check string) "encode_envelope = encode" (Result.get_ok (envelope_bytes e))
        (Result.get_ok (encode_with enc e)))
    envelopes;
  (* an error must not poison the handle for the next message *)
  let small = Codec.encoder ~config:{ Codec.default_config with max_message = 100 } () in
  (match encode_with small (List.nth envelopes 1) with
  | Error (Codec.Message_too_long _) -> ()
  | _ -> Alcotest.fail "expected Message_too_long");
  let ping = List.hd envelopes in
  Alcotest.(check string) "handle survives an error"
    (Result.get_ok (envelope_bytes ping))
    (Result.get_ok (encode_with small ping))

let test_codec_trailing_bytes () =
  let s = Codec.encode_exn Value.unit ^ "junk" in
  match Codec.decode s with
  | Error (Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "trailing bytes must fail"

(* qcheck: random value generator and roundtrip. *)
let gen_value =
  QCheck2.Gen.(
    sized_size (int_range 0 4) (fix (fun self n ->
        let leaf =
          oneof
            [
              return Value.Unit;
              map (fun b -> Value.Bool b) bool;
              map (fun i -> Value.Int i) int;
              map (fun f -> Value.Real f) (float_range (-1e9) 1e9);
              map (fun s -> Value.Str s) (string_size (int_range 0 20));
              map (fun o -> Value.Option (Option.map (fun i -> Value.Int i) o)) (option int);
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun l -> Value.Listv l) (list_size (int_range 0 4) (self (n - 1)));
              map (fun l -> Value.Tuple l) (list_size (int_range 0 4) (self (n - 1)));
              map
                (fun l -> Value.Record (List.mapi (fun i v -> ("f" ^ string_of_int i, v)) l))
                (list_size (int_range 0 4) (self (n - 1)));
              map (fun v -> Value.Named ("abs", v)) (self (n - 1));
            ])))

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrips arbitrary values" ~count:500 gen_value (fun v ->
      match Codec.encode v with
      | Error _ -> true (* size limits may trigger on big strings; fine *)
      | Ok s -> (
          match Codec.decode s with Ok v' -> Value.equal v v' | Error _ -> false))

(* ---- Token ---- *)

let test_token_roundtrip () =
  let tok = Token.seal ~secret:0xdeadbeefL ~owner:5 ~obj:77 in
  Alcotest.(check int) "owner visible" 5 (Token.owner tok);
  Alcotest.(check (option int)) "owner unseals" (Some 77)
    (Token.unseal ~secret:0xdeadbeefL ~owner:5 tok)

let test_token_wrong_secret () =
  let tok = Token.seal ~secret:1L ~owner:5 ~obj:77 in
  Alcotest.(check (option int)) "wrong secret fails" None
    (Token.unseal ~secret:2L ~owner:5 tok)

let test_token_wrong_owner () =
  let tok = Token.seal ~secret:1L ~owner:5 ~obj:77 in
  Alcotest.(check (option int)) "wrong owner fails" None (Token.unseal ~secret:1L ~owner:6 tok)

let test_token_tamper () =
  let tok = Token.seal ~secret:1L ~owner:5 ~obj:77 in
  let owner, body, tag = Token.to_wire tok in
  let forged = Token.of_wire (owner, Int64.add body 1L, tag) in
  Alcotest.(check (option int)) "tampered body fails" None
    (Token.unseal ~secret:1L ~owner:5 forged)

let prop_token_seal_unseal =
  QCheck2.Test.make ~name:"token seal/unseal identity" ~count:300
    QCheck2.Gen.(triple int64 (int_range 0 10000) (int_range 0 1_000_000))
    (fun (secret, owner, obj) ->
      Token.unseal ~secret ~owner (Token.seal ~secret ~owner ~obj) = Some obj)

(* ---- Transmit ---- *)

module Up : Transmit.S with type t = string = struct
  type t = string

  let type_name = "upper"
  let external_rep = Vtype.Tstr
  let encode s = Value.str (String.uppercase_ascii s)
  let decode v = Value.get_str v
end

let test_transmit_roundtrip () =
  let v = Transmit.to_value (module Up) "hello" in
  Alcotest.(check bool) "tagged" true
    (match v with Value.Named ("upper", _) -> true | _ -> false);
  Alcotest.(check string) "decodes" "HELLO" (Transmit.of_value (module Up) v)

let test_transmit_name_mismatch () =
  let v = Value.Named ("other", Value.str "x") in
  match Transmit.of_value (module Up) v with
  | exception Transmit.Decode_failure _ -> ()
  | _ -> Alcotest.fail "name mismatch must fail"

module Liar : Transmit.S with type t = int = struct
  type t = int

  let type_name = "liar"
  let external_rep = Vtype.Tstr
  let encode i = Value.int i (* violates its own declared external rep *)
  let decode _ = 0
end

let test_transmit_bad_encoder_caught () =
  match Transmit.to_value (module Liar) 3 with
  | exception Transmit.Encode_failure _ -> ()
  | _ -> Alcotest.fail "invalid external rep must be caught"

let test_registry_conflict () =
  let reg = Transmit.registry () in
  Transmit.register reg ~type_name:"t" ~external_rep:Vtype.Tint;
  Transmit.register reg ~type_name:"t" ~external_rep:Vtype.Tint;
  Alcotest.check_raises "conflicting registration"
    (Invalid_argument
       "Transmit.register: t already registered with external rep int (got string)")
    (fun () -> Transmit.register reg ~type_name:"t" ~external_rep:Vtype.Tstr)

let test_check_named_deep () =
  let reg = Transmit.registry () in
  Transmit.register reg ~type_name:"t" ~external_rep:Vtype.Tint;
  let good = Value.list [ Value.Named ("t", Value.int 1) ] in
  let unknown = Value.list [ Value.Named ("u", Value.int 1) ] in
  let bad_shape = Value.list [ Value.Named ("t", Value.str "no") ] in
  Alcotest.(check bool) "good" true (Result.is_ok (Transmit.check_named reg good));
  Alcotest.(check bool) "unknown type" true (Result.is_error (Transmit.check_named reg unknown));
  Alcotest.(check bool) "bad shape" true (Result.is_error (Transmit.check_named reg bad_shape))

let tests =
  [
    Alcotest.test_case "value accessors" `Quick test_value_accessors;
    Alcotest.test_case "value field" `Quick test_value_field;
    Alcotest.test_case "value equal" `Quick test_value_equal;
    Alcotest.test_case "value pp" `Quick test_value_pp;
    Alcotest.test_case "vtype builtins" `Quick test_vtype_check_builtin;
    Alcotest.test_case "vtype named" `Quick test_vtype_named;
    Alcotest.test_case "check_message" `Quick test_check_message;
    Alcotest.test_case "wildcard port type" `Quick test_check_message_wildcard;
    Alcotest.test_case "codec roundtrip basics" `Quick test_codec_roundtrip_basics;
    Alcotest.test_case "codec NaN" `Quick test_codec_nan_roundtrip;
    Alcotest.test_case "codec 24-bit bounds" `Quick test_codec_int_bounds;
    Alcotest.test_case "codec string limit" `Quick test_codec_string_limit;
    Alcotest.test_case "codec message limit" `Quick test_codec_message_limit;
    Alcotest.test_case "codec malformed" `Quick test_codec_malformed_input;
    Alcotest.test_case "codec adversarial length" `Quick test_codec_adversarial_length;
    Alcotest.test_case "codec negative count" `Quick test_codec_negative_count;
    Alcotest.test_case "codec encoder reuse" `Quick test_codec_encoder_reuse;
    Alcotest.test_case "codec trailing bytes" `Quick test_codec_trailing_bytes;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "token roundtrip" `Quick test_token_roundtrip;
    Alcotest.test_case "token wrong secret" `Quick test_token_wrong_secret;
    Alcotest.test_case "token wrong owner" `Quick test_token_wrong_owner;
    Alcotest.test_case "token tamper" `Quick test_token_tamper;
    QCheck_alcotest.to_alcotest prop_token_seal_unseal;
    Alcotest.test_case "transmit roundtrip" `Quick test_transmit_roundtrip;
    Alcotest.test_case "transmit name mismatch" `Quick test_transmit_name_mismatch;
    Alcotest.test_case "lying encoder caught" `Quick test_transmit_bad_encoder_caught;
    Alcotest.test_case "registry conflict" `Quick test_registry_conflict;
    Alcotest.test_case "check_named deep" `Quick test_check_named_deep;
  ]
