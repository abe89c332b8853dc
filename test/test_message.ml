(* Message construction and the wire envelope. *)

open Dcp_wire
module Message = Dcp_core.Message

let port_a = Port_name.make ~node:1 ~guardian:2 ~index:0 ~uid:10
let port_b = Port_name.make ~node:3 ~guardian:4 ~index:1 ~uid:11

let test_make_and_fields () =
  let m = Message.make ~reply_to:port_b ~sent_at:42 "reserve" [ Value.int 7 ] in
  Alcotest.(check string) "command" "reserve" m.Message.command;
  Alcotest.(check bool) "reply port" true (m.Message.reply_to = Some port_b);
  Alcotest.(check int) "timestamp" 42 m.Message.sent_at;
  Alcotest.(check bool) "not failure" false (Message.is_failure m)

let test_failure_shape () =
  let f = Message.failure ~reason:"no room" ~sent_at:1 in
  Alcotest.(check bool) "is failure" true (Message.is_failure f);
  Alcotest.(check bool) "no reply port ever" true (f.Message.reply_to = None);
  Alcotest.(check bool) "reason in args" true (f.Message.args = [ Value.str "no room" ])

let test_envelope_roundtrip () =
  let m =
    Message.make ~reply_to:port_b ~sent_at:99 "op"
      [ Value.int 1; Value.str "x"; Value.list [ Value.bool true ] ]
  in
  let env = Message.envelope ~target:port_a m in
  (* through the codec, like the runtime does *)
  let decoded = Codec.decode_exn (Codec.encode_exn env) in
  match Message.of_envelope decoded with
  | Error e -> Alcotest.fail e
  | Ok (target, m') ->
      Alcotest.(check bool) "target" true (Port_name.equal target port_a);
      Alcotest.(check string) "command" "op" m'.Message.command;
      Alcotest.(check bool) "args" true (List.equal Value.equal m.Message.args m'.Message.args);
      Alcotest.(check bool) "reply" true (m'.Message.reply_to = Some port_b);
      Alcotest.(check int) "sent_at travels" 99 m'.Message.sent_at

let test_envelope_no_reply () =
  let m = Message.make ~sent_at:0 "fire" [] in
  match Message.of_envelope (Message.envelope ~target:port_a m) with
  | Ok (_, m') -> Alcotest.(check bool) "no reply port" true (m'.Message.reply_to = None)
  | Error e -> Alcotest.fail e

let test_envelope_malformed () =
  (match Message.of_envelope (Value.int 3) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an int is not an envelope");
  match Message.of_envelope (Value.record [ ("target", Value.int 1) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing fields must fail"

let test_pp () =
  let m = Message.make ~reply_to:port_b ~sent_at:0 "reserve" [ Value.int 12; Value.str "bob" ] in
  Alcotest.(check string) "rendering"
    "reserve(12, \"bob\") replyto port<n3.g4.p1#11>"
    (Format.asprintf "%a" Message.pp m)

let prop_envelope_roundtrip =
  QCheck2.Test.make ~name:"envelope roundtrips arbitrary argument vectors" ~count:200
    QCheck2.Gen.(
      pair (string_size (int_range 1 12)) (list_size (int_range 0 6) (oneof [ map (fun i -> Value.Int i) int; map (fun s -> Value.Str s) (string_size (int_range 0 10)) ])))
    (fun (command, args) ->
      let m = Message.make ~sent_at:5 command args in
      match Message.of_envelope (Message.envelope ~target:port_a m) with
      | Ok (_, m') ->
          String.equal m'.Message.command command
          && List.equal Value.equal m'.Message.args args
      | Error _ -> false)

(* ---- The direct envelope pair against Message.envelope/of_envelope ----

   The runtime frames messages with Codec.encode_envelope/decode_envelope;
   Message.envelope through Codec.encode is the reference for their bytes. *)

type fields = Port_name.t * string * Value.t list * Port_name.t option * int

let old_encode ?config ((target, command, args, reply_to, sent_at) : fields) =
  Codec.encode ?config (Message.envelope ~target { Message.command; args; reply_to; sent_at })

let new_encode ?(config = Codec.default_config) ((target, command, args, reply_to, sent_at) : fields) =
  Codec.encode_envelope (Codec.encoder ~config ()) ~target ~command ~args ~reply_to ~sent_at

(* Decoded fields, or the codec error; an envelope the codec accepts but
   [of_envelope] does not is [Malformed] here. *)
let old_decode ?config s : (fields, Codec.error) result =
  match Codec.decode ?config s with
  | Error e -> Error e
  | Ok v -> (
      match Message.of_envelope v with
      | Ok (target, m) -> Ok (target, m.Message.command, m.Message.args, m.Message.reply_to, m.Message.sent_at)
      | Error reason -> Error (Codec.Malformed reason))

let new_decode ?(config = Codec.default_config) s = Codec.decode_envelope ~config s

let fields_equal ((t1, c1, a1, r1, s1) : fields) ((t2, c2, a2, r2, s2) : fields) =
  Port_name.equal t1 t2 && String.equal c1 c2 && List.equal Value.equal a1 a2
  && Option.equal Port_name.equal r1 r2 && s1 = s2

let same_decode a b =
  match (a, b) with
  | Ok x, Ok y -> fields_equal x y
  | Error e1, Error e2 -> e1 = e2
  | Ok _, Error _ | Error _, Ok _ -> false

let gen_int = QCheck2.Gen.(oneof [ small_signed_int; int; oneofl [ max_int; min_int; -8_388_609; 8_388_608 ] ])

let gen_port =
  QCheck2.Gen.(
    map
      (fun (node, guardian, index, uid) -> Port_name.make ~node ~guardian ~index ~uid)
      (quad gen_int small_nat small_nat gen_int))

(* Every Value kind, nested. *)
let gen_value =
  QCheck2.Gen.(
    sized_size (int_range 0 3) (fix (fun self n ->
        let leaf =
          oneof
            [
              return Value.Unit;
              map Value.bool bool;
              map Value.int gen_int;
              map Value.real (oneof [ float; return Float.nan ]);
              map Value.str (string_size (int_range 0 20));
              map Value.port gen_port;
              map
                (fun (secret, owner, obj) -> Value.token (Token.seal ~secret ~owner ~obj))
                (triple ui64 gen_int gen_int);
              return (Value.option None);
            ]
        in
        if n = 0 then leaf
        else
          let sub = list_size (int_range 0 4) (self (n - 1)) in
          oneof
            [
              leaf;
              map Value.list sub;
              map Value.tuple sub;
              map (fun l -> Value.record (List.mapi (fun i v -> ("f" ^ string_of_int i, v)) l)) sub;
              map (fun v -> Value.option (Some v)) (self (n - 1));
              map (fun v -> Value.Named ("abs", v)) (self (n - 1));
            ])))

let gen_fields : fields QCheck2.Gen.t =
  QCheck2.Gen.(
    map
      (fun ((target, command), (args, reply_to, sent_at)) -> (target, command, args, reply_to, sent_at))
      (pair
         (pair gen_port (string_size (int_range 0 12)))
         (triple (list_size (int_range 0 5) gen_value) (option gen_port) gen_int)))

let prop_envelope_same_bytes =
  QCheck2.Test.make ~name:"encode_envelope writes Message.envelope's bytes" ~count:500 gen_fields
    (fun f -> old_encode f = new_encode f)

let prop_envelope_same_decode =
  QCheck2.Test.make ~name:"decode_envelope agrees with of_envelope" ~count:500 gen_fields (fun f ->
      let s = Result.get_ok (old_encode f) in
      match new_decode s with Ok f' -> fields_equal f f' && same_decode (old_decode s) (Ok f') | Error _ -> false)

(* The paper's 24-bit integers and small limits: both paths fail with the
   same error, on the way out and on the way in. *)
let prop_envelope_1979_same_errors =
  QCheck2.Test.make ~name:"envelope paths agree under config_1979" ~count:500 gen_fields (fun f ->
      let config = Codec.config_1979 in
      old_encode ~config f = new_encode ~config f
      &&
      let s = Result.get_ok (old_encode f) in
      same_decode (old_decode ~config s) (new_decode ~config s))

let test_envelope_1979_limits () =
  let config = Codec.config_1979 in
  let with_args args : fields = (port_a, "op", args, Some port_b, 7) in
  List.iter
    (fun (what, f, expect) ->
      (match (old_encode ~config f, new_encode ~config f) with
      | Error e1, Error e2 when e1 = e2 && expect e1 -> ()
      | _ -> Alcotest.failf "%s: encode paths disagree" what);
      let s = Result.get_ok (old_encode f) in
      match (old_decode ~config s, new_decode ~config s) with
      | Error e1, Error e2 when e1 = e2 && expect e1 -> ()
      | _ -> Alcotest.failf "%s: decode paths disagree" what)
    [
      ( "int argument",
        with_args [ Value.int 8_388_608 ],
        function Codec.Int_out_of_bounds 8_388_608 -> true | _ -> false );
      ( "string argument",
        with_args [ Value.str (String.make 5000 's') ],
        function Codec.String_too_long 5000 -> true | _ -> false );
      ( "message size",
        with_args (List.init 17 (fun _ -> Value.str (String.make 4000 'm'))),
        function Codec.Message_too_long _ -> true | _ -> false );
      ( "sent_at",
        (port_a, "op", [], None, -8_388_609),
        function Codec.Int_out_of_bounds -8_388_609 -> true | _ -> false );
    ]

let ping : fields = (port_a, "ping", [ Value.int (-3) ], Some port_b, 1_000_000)
let ping_bytes = Result.get_ok (old_encode ping)

let both_reject what s =
  match (old_decode s, new_decode s) with
  | Error _, Error (Codec.Malformed _) -> ()
  | _ -> Alcotest.failf "%s: both paths must reject" what

let test_envelope_both_reject () =
  for len = 0 to String.length ping_bytes - 1 do
    both_reject (Printf.sprintf "prefix of %d bytes" len) (String.sub ping_bytes 0 len)
  done;
  both_reject "one trailing byte" (ping_bytes ^ "\x00");
  (* "target" -> "tarxet" *)
  let renamed = Bytes.of_string ping_bytes in
  Bytes.set renamed 6 'x';
  both_reject "renamed field" (Bytes.to_string renamed);
  (* the record tag 0x08 -> the tuple tag 0x07 *)
  both_reject "wrong tag" ("\x07" ^ String.sub ping_bytes 1 (String.length ping_bytes - 1))

(* The one narrowing: the record path looks fields up by name, so it takes
   them in any order; the direct decoder takes only the order the encoder
   writes. *)
let test_envelope_reordered_rejected () =
  let target, command, args, reply_to, sent_at = ping in
  let reordered =
    Codec.encode_exn
      (Value.record
         [
           ("command", Value.str command);
           ("target", Value.port target);
           ("args", Value.list args);
           ("reply", Value.option (Option.map Value.port reply_to));
           ("sent_at", Value.int sent_at);
         ])
  in
  (match old_decode reordered with
  | Ok f -> Alcotest.(check bool) "record path accepts any order" true (fields_equal f ping)
  | Error e -> Alcotest.failf "record path: %a" Codec.pp_error e);
  match new_decode reordered with
  | Error (Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "direct decoder must reject reordered fields"

let tests =
  [
    Alcotest.test_case "make + fields" `Quick test_make_and_fields;
    Alcotest.test_case "failure shape" `Quick test_failure_shape;
    Alcotest.test_case "envelope roundtrip" `Quick test_envelope_roundtrip;
    Alcotest.test_case "envelope no reply" `Quick test_envelope_no_reply;
    Alcotest.test_case "envelope malformed" `Quick test_envelope_malformed;
    Alcotest.test_case "pp" `Quick test_pp;
    QCheck_alcotest.to_alcotest prop_envelope_roundtrip;
    QCheck_alcotest.to_alcotest prop_envelope_same_bytes;
    QCheck_alcotest.to_alcotest prop_envelope_same_decode;
    QCheck_alcotest.to_alcotest prop_envelope_1979_same_errors;
    Alcotest.test_case "envelope paths agree on 1979 limits" `Quick test_envelope_1979_limits;
    Alcotest.test_case "envelope paths both reject" `Quick test_envelope_both_reject;
    Alcotest.test_case "envelope reordered fields rejected" `Quick test_envelope_reordered_rejected;
  ]
