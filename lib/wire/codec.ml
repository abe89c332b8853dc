type config = { int_bits : int; max_string : int; max_message : int }

let default_config = { int_bits = 63; max_string = 1 lsl 20; max_message = 4 lsl 20 }
let config_1979 = { int_bits = 24; max_string = 4096; max_message = 65536 }

let int_in_bounds config i =
  if config.int_bits >= 63 then true
  else
    let limit = 1 lsl (config.int_bits - 1) in
    i >= -limit && i < limit

type error =
  | Int_out_of_bounds of int
  | String_too_long of int
  | Message_too_long of int
  | Malformed of string

let pp_error fmt = function
  | Int_out_of_bounds i -> Format.fprintf fmt "integer %d exceeds the system-wide bounds" i
  | String_too_long n -> Format.fprintf fmt "string of %d bytes exceeds the system-wide limit" n
  | Message_too_long n -> Format.fprintf fmt "message of %d bytes exceeds the system-wide limit" n
  | Malformed reason -> Format.fprintf fmt "malformed message: %s" reason

exception Codec_error of error

(* Wire format: one tag byte per node, then payload.  Integers are zigzag
   varints; floats are 8-byte IEEE; strings and collections are
   length-prefixed (varint). *)

let tag_unit = 0
let tag_false = 1
let tag_true = 2
let tag_int = 3
let tag_real = 4
let tag_str = 5
let tag_list = 6
let tag_tuple = 7
let tag_record = 8
let tag_none = 9
let tag_some = 10
let tag_port = 11
let tag_token = 12
let tag_named = 13

let zigzag i = (i lsl 1) lxor (i asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* The varint loops are top-level functions, not local closures over
   [buf]/[r], so a call allocates nothing. *)
let rec write_uvarint_loop buf u =
  if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
  else begin
    Buffer.add_char buf (Char.chr ((u land 0x7f) lor 0x80));
    write_uvarint_loop buf (u lsr 7)
  end

let write_varint buf i = write_uvarint_loop buf (zigzag i)

let write_uvarint buf u =
  if u < 0 then raise (Codec_error (Malformed "negative length"));
  write_uvarint_loop buf u

let write_int64 buf v =
  for shift = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical v (shift * 8)) land 0xff))
  done

let write_tag buf tag = Buffer.add_char buf (Char.chr tag)

let write_name buf name =
  write_uvarint buf (String.length name);
  Buffer.add_string buf name

(* The per-kind writers below are shared by [encode_value] and
   [encode_envelope], so the two cannot disagree on a byte. *)
let write_int config buf i =
  if not (int_in_bounds config i) then raise (Codec_error (Int_out_of_bounds i));
  write_tag buf tag_int;
  write_varint buf i

let write_str config buf s =
  if String.length s > config.max_string then
    raise (Codec_error (String_too_long (String.length s)));
  write_tag buf tag_str;
  write_name buf s

let write_port buf p =
  write_tag buf tag_port;
  write_varint buf p.Port_name.node;
  write_varint buf p.Port_name.guardian;
  write_varint buf p.Port_name.index;
  write_varint buf p.Port_name.uid

let rec encode_value config buf v =
  match v with
  | Value.Unit -> write_tag buf tag_unit
  | Value.Bool false -> write_tag buf tag_false
  | Value.Bool true -> write_tag buf tag_true
  | Value.Int i -> write_int config buf i
  | Value.Real r ->
      write_tag buf tag_real;
      write_int64 buf (Int64.bits_of_float r)
  | Value.Str s -> write_str config buf s
  | Value.Listv items -> encode_seq config buf tag_list items
  | Value.Tuple items -> encode_seq config buf tag_tuple items
  | Value.Record fields ->
      write_tag buf tag_record;
      write_uvarint buf (List.length fields);
      encode_fields config buf fields
  | Value.Option None -> write_tag buf tag_none
  | Value.Option (Some inner) ->
      write_tag buf tag_some;
      encode_value config buf inner
  | Value.Portv p -> write_port buf p
  | Value.Tokenv tok ->
      let owner, body, tag = Token.to_wire tok in
      write_tag buf tag_token;
      write_varint buf owner;
      write_int64 buf body;
      write_int64 buf tag
  | Value.Named (name, rep) ->
      write_tag buf tag_named;
      write_name buf name;
      encode_value config buf rep

and encode_seq config buf tag items =
  write_tag buf tag;
  write_uvarint buf (List.length items);
  encode_items config buf items

and encode_items config buf = function
  | [] -> ()
  | v :: rest ->
      encode_value config buf v;
      encode_items config buf rest

and encode_fields config buf = function
  | [] -> ()
  | (name, v) :: rest ->
      write_name buf name;
      encode_value config buf v;
      encode_fields config buf rest

type reader = { input : string; mutable pos : int }

let malformed reason = raise (Codec_error (Malformed reason))

let read_byte r =
  if r.pos >= String.length r.input then malformed "truncated input";
  let c = Char.code r.input.[r.pos] in
  r.pos <- r.pos + 1;
  c

let rec read_uvarint_from r shift acc =
  if shift > 62 then malformed "varint too long";
  let b = read_byte r in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else read_uvarint_from r (shift + 7) acc

let read_uvarint r = read_uvarint_from r 0 0
let read_varint r = unzigzag (read_uvarint r)

(* A collection count: a varint that wraps negative is corrupt input, not
   an argument for [List.init]. *)
let read_count r =
  let n = read_uvarint r in
  if n < 0 then malformed "negative count";
  n

let read_int64 r =
  let v = ref 0L in
  for shift = 0 to 7 do
    let b = read_byte r in
    v := Int64.logor !v (Int64.shift_left (Int64.of_int b) (shift * 8))
  done;
  !v

(* Length of the string that starts at [r.pos], checked against the space
   left, never as [r.pos + len]: an adversarial varint can make that sum
   wrap negative and slip past the bound. *)
let read_string_length r =
  let len = read_uvarint r in
  if len < 0 || len > String.length r.input - r.pos then malformed "truncated string";
  len

let read_string r =
  let len = read_string_length r in
  let s = String.sub r.input r.pos len in
  r.pos <- r.pos + len;
  s

(* The per-kind readers take over after their tag byte, shared by
   [decode_value] and [decode_envelope] like the writers above. *)
let read_int config r =
  let i = read_varint r in
  if not (int_in_bounds config i) then raise (Codec_error (Int_out_of_bounds i));
  i

let read_str config r =
  let s = read_string r in
  if String.length s > config.max_string then
    raise (Codec_error (String_too_long (String.length s)));
  s

let read_port r =
  let node = read_varint r in
  let guardian = read_varint r in
  let index = read_varint r in
  let uid = read_varint r in
  Port_name.make ~node ~guardian ~index ~uid

let rec decode_value config r =
  let tag = read_byte r in
  if tag = tag_unit then Value.Unit
  else if tag = tag_false then Value.Bool false
  else if tag = tag_true then Value.Bool true
  else if tag = tag_int then Value.Int (read_int config r)
  else if tag = tag_real then Value.Real (Int64.float_of_bits (read_int64 r))
  else if tag = tag_str then Value.Str (read_str config r)
  else if tag = tag_list then Value.Listv (decode_seq config r)
  else if tag = tag_tuple then Value.Tuple (decode_seq config r)
  else if tag = tag_record then
    Value.Record
      (List.init (read_count r) (fun _ ->
           let name = read_string r in
           (name, decode_value config r)))
  else if tag = tag_none then Value.Option None
  else if tag = tag_some then Value.Option (Some (decode_value config r))
  else if tag = tag_port then Value.Portv (read_port r)
  else if tag = tag_token then begin
    let owner = read_varint r in
    let body = read_int64 r in
    let tag' = read_int64 r in
    Value.Tokenv (Token.of_wire (owner, body, tag'))
  end
  else if tag = tag_named then begin
    let name = read_string r in
    Value.Named (name, decode_value config r)
  end
  else malformed (Printf.sprintf "unknown tag %d" tag)

and decode_seq config r = List.init (read_count r) (fun _ -> decode_value config r)

(* An encoder owns a scratch buffer reused across calls, so hot senders
   (Runtime.route encodes every message in the world) stop allocating and
   growing a fresh Buffer per message; only the final output string is
   allocated. *)
type encoder = { enc_config : config; scratch : Buffer.t }

let encoder ?(config = default_config) () = { enc_config = config; scratch = Buffer.create 256 }

(* The size check every encode ends with, once the writer has filled the
   scratch buffer. *)
let contents enc =
  let buf = enc.scratch in
  if Buffer.length buf > enc.enc_config.max_message then Error (Message_too_long (Buffer.length buf))
  else Ok (Buffer.contents buf)

let encode ?config v =
  let enc = encoder ?config () in
  match encode_value enc.enc_config enc.scratch v with
  | () -> contents enc
  | exception Codec_error e -> Error e

let decode_from config s read =
  if String.length s > config.max_message then Error (Message_too_long (String.length s))
  else
    let r = { input = s; pos = 0 } in
    match read config r with
    | v -> if r.pos <> String.length s then Error (Malformed "trailing bytes") else Ok v
    | exception Codec_error e -> Error e

let decode ?(config = default_config) s = decode_from config s decode_value

let encode_exn v =
  match encode v with Ok s -> s | Error e -> raise (Codec_error e)

let decode_exn s =
  match decode s with Ok v -> v | Error e -> raise (Codec_error e)

(* ---- The message envelope ----

   The runtime frames every message as the record
   [{target; command; args; reply; sent_at}] (see [Message.envelope]).
   These two functions write and read exactly the bytes [encode] and
   [decode] produce for that record, without building it: fields go
   straight from the arguments to the buffer and from the input to the
   result, and field names are compared in place.  Decoding accepts only
   what [encode_envelope] writes, fields in order. *)

let envelope_fields = 5

let write_envelope config buf ~target ~command ~args ~reply_to ~sent_at =
  write_tag buf tag_record;
  write_uvarint buf envelope_fields;
  write_name buf "target";
  write_port buf target;
  write_name buf "command";
  write_str config buf command;
  write_name buf "args";
  encode_seq config buf tag_list args;
  write_name buf "reply";
  (match reply_to with
  | None -> write_tag buf tag_none
  | Some p ->
      write_tag buf tag_some;
      write_port buf p);
  write_name buf "sent_at";
  write_int config buf sent_at

let encode_envelope enc ~target ~command ~args ~reply_to ~sent_at =
  Buffer.clear enc.scratch;
  match write_envelope enc.enc_config enc.scratch ~target ~command ~args ~reply_to ~sent_at with
  | () -> contents enc
  | exception Codec_error e -> Error e

let expect_tag r tag = if read_byte r <> tag then malformed "not a message envelope"

let expect_name r name =
  let len = read_string_length r in
  if len <> String.length name then malformed "not a message envelope";
  for i = 0 to len - 1 do
    if r.input.[r.pos + i] <> name.[i] then malformed "not a message envelope"
  done;
  r.pos <- r.pos + len

let read_envelope config r =
  expect_tag r tag_record;
  if read_count r <> envelope_fields then malformed "not a message envelope";
  expect_name r "target";
  expect_tag r tag_port;
  let target = read_port r in
  expect_name r "command";
  expect_tag r tag_str;
  let command = read_str config r in
  expect_name r "args";
  expect_tag r tag_list;
  let args = decode_seq config r in
  expect_name r "reply";
  let tag = read_byte r in
  let reply_to =
    if tag = tag_none then None
    else if tag = tag_some then begin
      expect_tag r tag_port;
      Some (read_port r)
    end
    else malformed "not a message envelope"
  in
  expect_name r "sent_at";
  expect_tag r tag_int;
  let sent_at = read_int config r in
  (target, command, args, reply_to, sent_at)

let decode_envelope ~config s = decode_from config s read_envelope
