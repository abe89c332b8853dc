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

let write_varint buf i =
  let rec loop u =
    if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
    else begin
      Buffer.add_char buf (Char.chr ((u land 0x7f) lor 0x80));
      loop (u lsr 7)
    end
  in
  loop (zigzag i)

let write_uvarint buf u =
  let rec loop u =
    if u land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr u)
    else begin
      Buffer.add_char buf (Char.chr ((u land 0x7f) lor 0x80));
      loop (u lsr 7)
    end
  in
  if u < 0 then raise (Codec_error (Malformed "negative length"));
  loop u

let write_int64 buf v =
  for shift = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical v (shift * 8)) land 0xff))
  done

let rec encode_value config buf v =
  match v with
  | Value.Unit -> Buffer.add_char buf (Char.chr tag_unit)
  | Value.Bool false -> Buffer.add_char buf (Char.chr tag_false)
  | Value.Bool true -> Buffer.add_char buf (Char.chr tag_true)
  | Value.Int i ->
      if not (int_in_bounds config i) then raise (Codec_error (Int_out_of_bounds i));
      Buffer.add_char buf (Char.chr tag_int);
      write_varint buf i
  | Value.Real r ->
      Buffer.add_char buf (Char.chr tag_real);
      write_int64 buf (Int64.bits_of_float r)
  | Value.Str s ->
      if String.length s > config.max_string then
        raise (Codec_error (String_too_long (String.length s)));
      Buffer.add_char buf (Char.chr tag_str);
      write_uvarint buf (String.length s);
      Buffer.add_string buf s
  | Value.Listv items ->
      Buffer.add_char buf (Char.chr tag_list);
      write_uvarint buf (List.length items);
      List.iter (encode_value config buf) items
  | Value.Tuple items ->
      Buffer.add_char buf (Char.chr tag_tuple);
      write_uvarint buf (List.length items);
      List.iter (encode_value config buf) items
  | Value.Record fields ->
      Buffer.add_char buf (Char.chr tag_record);
      write_uvarint buf (List.length fields);
      List.iter
        (fun (name, fv) ->
          write_uvarint buf (String.length name);
          Buffer.add_string buf name;
          encode_value config buf fv)
        fields
  | Value.Option None -> Buffer.add_char buf (Char.chr tag_none)
  | Value.Option (Some inner) ->
      Buffer.add_char buf (Char.chr tag_some);
      encode_value config buf inner
  | Value.Portv p ->
      Buffer.add_char buf (Char.chr tag_port);
      write_varint buf p.Port_name.node;
      write_varint buf p.Port_name.guardian;
      write_varint buf p.Port_name.index;
      write_varint buf p.Port_name.uid
  | Value.Tokenv tok ->
      let owner, body, tag = Token.to_wire tok in
      Buffer.add_char buf (Char.chr tag_token);
      write_varint buf owner;
      write_int64 buf body;
      write_int64 buf tag
  | Value.Named (name, rep) ->
      Buffer.add_char buf (Char.chr tag_named);
      write_uvarint buf (String.length name);
      Buffer.add_string buf name;
      encode_value config buf rep

type reader = { input : string; mutable pos : int }

let read_byte r =
  if r.pos >= String.length r.input then raise (Codec_error (Malformed "truncated input"));
  let c = Char.code r.input.[r.pos] in
  r.pos <- r.pos + 1;
  c

let read_uvarint r =
  let rec loop shift acc =
    if shift > 62 then raise (Codec_error (Malformed "varint too long"));
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

let read_varint r = unzigzag (read_uvarint r)

let read_int64 r =
  let v = ref 0L in
  for shift = 0 to 7 do
    let b = read_byte r in
    v := Int64.logor !v (Int64.shift_left (Int64.of_int b) (shift * 8))
  done;
  !v

let read_string r =
  let len = read_uvarint r in
  (* compare against the space left, never [r.pos + len]: an adversarial
     varint can make that sum wrap negative and slip past the bound *)
  if len < 0 || len > String.length r.input - r.pos then
    raise (Codec_error (Malformed "truncated string"));
  let s = String.sub r.input r.pos len in
  r.pos <- r.pos + len;
  s

let rec decode_value config r =
  let tag = read_byte r in
  if tag = tag_unit then Value.Unit
  else if tag = tag_false then Value.Bool false
  else if tag = tag_true then Value.Bool true
  else if tag = tag_int then begin
    let i = read_varint r in
    if not (int_in_bounds config i) then raise (Codec_error (Int_out_of_bounds i));
    Value.Int i
  end
  else if tag = tag_real then Value.Real (Int64.float_of_bits (read_int64 r))
  else if tag = tag_str then begin
    let s = read_string r in
    if String.length s > config.max_string then
      raise (Codec_error (String_too_long (String.length s)));
    Value.Str s
  end
  else if tag = tag_list then Value.Listv (decode_seq config r)
  else if tag = tag_tuple then Value.Tuple (decode_seq config r)
  else if tag = tag_record then begin
    let n = read_uvarint r in
    Value.Record
      (List.init n (fun _ ->
           let name = read_string r in
           (name, decode_value config r)))
  end
  else if tag = tag_none then Value.Option None
  else if tag = tag_some then Value.Option (Some (decode_value config r))
  else if tag = tag_port then begin
    let node = read_varint r in
    let guardian = read_varint r in
    let index = read_varint r in
    let uid = read_varint r in
    Value.Portv (Port_name.make ~node ~guardian ~index ~uid)
  end
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
  else raise (Codec_error (Malformed (Printf.sprintf "unknown tag %d" tag)))

and decode_seq config r =
  let n = read_uvarint r in
  List.init n (fun _ -> decode_value config r)

(* An encoder owns a scratch buffer reused across calls, so hot senders
   (Runtime.route encodes every message in the world) stop allocating and
   growing a fresh Buffer per message; only the final output string is
   allocated. *)
type encoder = { enc_config : config; scratch : Buffer.t }

let encoder ?(config = default_config) () = { enc_config = config; scratch = Buffer.create 256 }

let encode_with enc v =
  let buf = enc.scratch in
  Buffer.clear buf;
  match encode_value enc.enc_config buf v with
  | () ->
      if Buffer.length buf > enc.enc_config.max_message then
        Error (Message_too_long (Buffer.length buf))
      else Ok (Buffer.contents buf)
  | exception Codec_error e -> Error e

let encode ?config v = encode_with (encoder ?config ()) v

let decode ?(config = default_config) s =
  if String.length s > config.max_message then Error (Message_too_long (String.length s))
  else
    let r = { input = s; pos = 0 } in
    match decode_value config r with
    | v -> if r.pos <> String.length s then Error (Malformed "trailing bytes") else Ok v
    | exception Codec_error e -> Error e

let encode_exn v =
  match encode v with Ok s -> s | Error e -> raise (Codec_error e)

let decode_exn s =
  match decode s with Ok v -> v | Error e -> raise (Codec_error e)
