type item = Str of string | List of item list

exception Decode_error of string

let fail msg = raise (Decode_error msg)

(* ---- in-place writers: exact sizes first, then one buffer ---- *)

let rec be_len n = if n = 0 then 0 else 1 + be_len (n lsr 8)
let header_len len = if len < 56 then 1 else 1 + be_len len

let str_size s =
  let n = String.length s in
  if n = 1 && s.[0] < '\x80' then 1 else header_len n + n

let int_size n =
  if n < 0 then invalid_arg "Rlp.int_size: negative";
  if n > 0 && n < 0x80 then 1 else 1 + be_len n

(* The [nb] low bytes of [n], big-endian, at [pos]. *)
let put_be b pos n nb =
  for i = 0 to nb - 1 do
    Bytes.set b (pos + i) (Char.chr ((n lsr (8 * (nb - 1 - i))) land 0xff))
  done;
  pos + nb

let put_header b pos base len =
  if len < 56 then begin
    Bytes.set b pos (Char.chr (base + len));
    pos + 1
  end
  else begin
    let nb = be_len len in
    Bytes.set b pos (Char.chr (base + 55 + nb));
    put_be b (pos + 1) len nb
  end

let put_str b pos s =
  let n = String.length s in
  if n = 1 && s.[0] < '\x80' then begin
    Bytes.set b pos s.[0];
    pos + 1
  end
  else begin
    let pos = put_header b pos 0x80 n in
    Bytes.blit_string s 0 b pos n;
    pos + n
  end

let put_int b pos n =
  if n < 0 then invalid_arg "Rlp.put_int: negative";
  if n > 0 && n < 0x80 then begin
    Bytes.set b pos (Char.chr n);
    pos + 1
  end
  else
    let nb = be_len n in
    put_be b (put_header b pos 0x80 nb) n nb

let rec item_size = function
  | Str s -> str_size s
  | List items ->
    let p = payload_size items in
    header_len p + p

and payload_size items = List.fold_left (fun n it -> n + item_size it) 0 items

let rec put_item b pos = function
  | Str s -> put_str b pos s
  | List items -> List.fold_left (put_item b) (put_header b pos 0xc0 (payload_size items)) items

let encode item =
  let b = Bytes.create (item_size item) in
  ignore (put_item b 0 item);
  Bytes.unsafe_to_string b

(* ---- in-place readers ---- *)

let payload_start s pos =
  let b = Char.code s.[pos] in
  if b < 0x80 then pos
  else if b <= 0xb7 then pos + 1
  else if b <= 0xbf then pos + b - 0xb6
  else if b <= 0xf7 then pos + 1
  else pos + b - 0xf6

(* Big-endian length in [n] bytes at [at], which must be minimal. *)
let long_len s at n =
  if s.[at] = '\000' then fail "non-minimal length";
  let rec go acc i = if i = n then acc else go ((acc lsl 8) lor Char.code s.[at + i]) (i + 1) in
  let len = go 0 0 in
  if len < 56 then fail "non-minimal length";
  len

(* The two items trie nodes and state records are mostly made of, the
   empty string 0x80 and a 32-byte hash 0xa0, are skipped without the
   general header parse: for both, the checks reduce to the payload being
   in bounds. *)
let item_end s pos limit =
  if pos >= limit then fail "truncated input";
  match String.unsafe_get s pos with
  | '\x80' -> pos + 1
  | '\xa0' when limit - pos > 32 -> pos + 33
  | c ->
    let b = Char.code c in
    let start = payload_start s pos in
    if start > limit then fail "truncated length";
    let len =
      if b < 0x80 then 1
      else if b <= 0xb7 then b - 0x80
      else if b <= 0xbf then long_len s (pos + 1) (b - 0xb7)
      else if b <= 0xf7 then b - 0xc0
      else long_len s (pos + 1) (b - 0xf7)
    in
    if len > limit - start then fail "truncated item";
    if b = 0x81 && Char.code s.[start] < 0x80 then fail "non-minimal single byte";
    start + len

let is_list s pos = s.[pos] >= '\xc0'

(* The big-endian integer in the payload from [a] to [stop]. *)
let be_int s a stop =
  let n = stop - a in
  if n > 0 && s.[a] = '\000' then fail "decode_int: leading zero";
  if n > 8 then fail "decode_int: overflow";
  let r = ref 0 in
  for i = a to stop - 1 do
    r := (!r lsl 8) lor Char.code s.[i]
  done;
  if !r < 0 then fail "decode_int: overflow";
  !r

let int_at s pos stop =
  if is_list s pos then fail "decode_int: list";
  be_int s (payload_start s pos) stop

(* ---- decoding into an item tree, through the readers ---- *)

let rec decode_at s pos limit =
  let stop = item_end s pos limit in
  let a = payload_start s pos in
  if is_list s pos then begin
    let rec items acc p =
      if p = stop then List.rev acc
      else
        let it, p' = decode_at s p stop in
        items (it :: acc) p'
    in
    (List (items [] a), stop)
  end
  else (Str (String.sub s a (stop - a)), stop)

let decode s =
  let n = String.length s in
  let item, next = decode_at s 0 n in
  if next <> n then fail "trailing bytes";
  item

let encode_int n =
  if n < 0 then invalid_arg "Rlp.encode_int: negative";
  let b = Bytes.create (be_len n) in
  ignore (put_be b 0 n (Bytes.length b));
  Str (Bytes.unsafe_to_string b)

let decode_int = function
  | List _ -> fail "decode_int: list"
  | Str s -> be_int s 0 (String.length s)

let rec pp ppf = function
  | Str s ->
    if String.for_all (fun c -> c >= ' ' && c < '\x7f') s then Format.fprintf ppf "%S" s
    else begin
      Format.pp_print_string ppf "0x";
      String.iter (fun c -> Format.fprintf ppf "%02x" (Char.code c)) s
    end
  | List items ->
    Format.fprintf ppf "[@[%a@]]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
      items
