(* Reference RLP codec for the tests in [Test_rlp] and [Trie_ref]: the
   item encoder that builds each header as a string and concatenates, and
   the decoder that parses headers on its own, without [Rlp]'s in-place
   readers.  [Rlp.encode] must agree with it byte for byte, and [Rlp.decode]
   must accept exactly the inputs it accepts. *)

open Rlp

let fail msg = raise (Decode_error msg)

(* Big-endian minimal byte string for a length. *)
let be_bytes n =
  let rec go acc n =
    if n = 0 then acc else go (String.make 1 (Char.chr (n land 0xff)) ^ acc) (n lsr 8)
  in
  go "" n

let encode_length len offset =
  if len < 56 then String.make 1 (Char.chr (offset + len))
  else
    let lb = be_bytes len in
    String.make 1 (Char.chr (offset + 55 + String.length lb)) ^ lb

let rec encode = function
  | Str s ->
    if String.length s = 1 && Char.code s.[0] < 0x80 then s
    else encode_length (String.length s) 0x80 ^ s
  | List items ->
    let payload = String.concat "" (List.map encode items) in
    encode_length (String.length payload) 0xc0 ^ payload

let encode_int n = Str (be_bytes n)

let decode_int = function
  | List _ -> fail "decode_int: list"
  | Str s ->
    if String.length s > 0 && Char.code s.[0] = 0 then fail "decode_int: leading zero";
    if String.length s > 8 then fail "decode_int: overflow";
    let r = ref 0 in
    String.iter (fun c -> r := (!r lsl 8) lor Char.code c) s;
    if !r < 0 then fail "decode_int: overflow";
    !r

(* Decode one item starting at [pos]; returns (item, next position). *)
let rec decode_at s pos =
  if pos >= String.length s then fail "truncated input";
  let b = Char.code s.[pos] in
  let read_len nbytes at =
    if at + nbytes > String.length s then fail "truncated length";
    let rec go acc i = if i = nbytes then acc else go ((acc lsl 8) lor Char.code s.[at + i]) (i + 1) in
    let len = go 0 0 in
    if nbytes > 0 && Char.code s.[at] = 0 then fail "non-minimal length";
    if len < 56 && nbytes > 0 then fail "non-minimal length";
    len
  in
  if b < 0x80 then (Str (String.make 1 s.[pos]), pos + 1)
  else if b <= 0xb7 then begin
    let len = b - 0x80 in
    if pos + 1 + len > String.length s then fail "truncated string";
    let str = String.sub s (pos + 1) len in
    if len = 1 && Char.code str.[0] < 0x80 then fail "non-minimal single byte";
    (Str str, pos + 1 + len)
  end
  else if b <= 0xbf then begin
    let nbytes = b - 0xb7 in
    let len = read_len nbytes (pos + 1) in
    let start = pos + 1 + nbytes in
    if start + len > String.length s then fail "truncated long string";
    (Str (String.sub s start len), start + len)
  end
  else begin
    let payload_start, payload_len =
      if b <= 0xf7 then (pos + 1, b - 0xc0)
      else
        let nbytes = b - 0xf7 in
        (pos + 1 + nbytes, read_len nbytes (pos + 1))
    in
    if payload_start + payload_len > String.length s then fail "truncated list";
    let stop = payload_start + payload_len in
    let rec items acc p =
      if p = stop then List.rev acc
      else if p > stop then fail "list payload overrun"
      else
        let it, p' = decode_at s p in
        items (it :: acc) p'
    in
    (List (items [] payload_start), stop)
  end

let decode s =
  let item, next = decode_at s 0 in
  if next <> String.length s then fail "trailing bytes";
  item
