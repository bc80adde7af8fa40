(* RLP encode/decode tests against the canonical examples from the Ethereum
   wiki plus roundtrip and malformed-input properties. *)

open Rlp

let t name f = Alcotest.test_case name `Quick f
let enc_hex item = Khash.Keccak.to_hex (encode item)

let rec item_equal a b =
  match (a, b) with
  | Str x, Str y -> String.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 item_equal x y
  | (Str _ | List _), _ -> false

let check_item = Alcotest.testable pp item_equal

let unit_tests =
  [ t "dog" (fun () -> Alcotest.(check string) "dog" "83646f67" (enc_hex (Str "dog")));
    t "cat dog list" (fun () ->
        Alcotest.(check string) "list" "c88363617483646f67"
          (enc_hex (List [ Str "cat"; Str "dog" ])));
    t "empty string" (fun () -> Alcotest.(check string) "empty" "80" (enc_hex (Str "")));
    t "empty list" (fun () -> Alcotest.(check string) "empty list" "c0" (enc_hex (List [])));
    t "integer 0" (fun () -> Alcotest.(check string) "0" "80" (enc_hex (encode_int 0)));
    t "integer 15" (fun () -> Alcotest.(check string) "15" "0f" (enc_hex (encode_int 15)));
    t "integer 1024" (fun () ->
        Alcotest.(check string) "1024" "820400" (enc_hex (encode_int 1024)));
    t "single byte below 0x80" (fun () ->
        Alcotest.(check string) "a" "61" (enc_hex (Str "a")));
    t "single byte 0x80 gets prefix" (fun () ->
        Alcotest.(check string) "0x80" "8180" (enc_hex (Str "\x80")));
    t "set of three" (fun () ->
        (* [ [], [[]], [ [], [[]] ] ] — canonical nested example *)
        Alcotest.(check string) "nested" "c7c0c1c0c3c0c1c0"
          (enc_hex (List [ List []; List [ List [] ]; List [ List []; List [ List [] ] ] ])));
    t "55-byte string boundary" (fun () ->
        let s = String.make 55 'x' in
        let e = encode (Str s) in
        Alcotest.(check int) "1-byte header" 56 (String.length e);
        Alcotest.(check int) "prefix" (0x80 + 55) (Char.code e.[0]));
    t "56-byte string boundary" (fun () ->
        let s = String.make 56 'x' in
        let e = encode (Str s) in
        Alcotest.(check int) "2-byte header" 58 (String.length e);
        Alcotest.(check int) "prefix" 0xb8 (Char.code e.[0]);
        Alcotest.(check int) "len byte" 56 (Char.code e.[1]));
    t "1024-byte string" (fun () ->
        let s = String.make 1024 'y' in
        let e = encode (Str s) in
        Alcotest.(check int) "prefix" 0xb9 (Char.code e.[0]);
        Alcotest.check check_item "roundtrip" (Str s) (decode e));
    t "long list" (fun () ->
        let l = List (Stdlib.List.init 100 (fun i -> encode_int i)) in
        Alcotest.check check_item "roundtrip" l (decode (encode l)));
    t "decode_int roundtrip" (fun () ->
        List.iter
          (fun n -> Alcotest.(check int) (string_of_int n) n (decode_int (encode_int n)))
          [ 0; 1; 127; 128; 255; 256; 65535; 1 lsl 40 ]);
    t "decode rejects trailing bytes" (fun () ->
        Alcotest.check_raises "trailing" (Decode_error "trailing bytes") (fun () ->
            ignore (decode (encode (Str "dog") ^ "x"))));
    t "decode rejects truncation" (fun () ->
        let e = encode (Str "hello world longer than nothing") in
        Alcotest.(check bool) "raises" true
          (try
             ignore (decode (String.sub e 0 (String.length e - 1)));
             false
           with Decode_error _ -> true));
    t "decode rejects non-minimal single byte" (fun () ->
        (* "\x81\x05" encodes 0x05 with a needless prefix *)
        Alcotest.(check bool) "raises" true
          (try
             ignore (decode "\x81\x05");
             false
           with Decode_error _ -> true));
    t "decode_int rejects leading zeros" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (decode_int (Str "\x00\x01"));
             false
           with Decode_error _ -> true))
  ]

let arb_item =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then map (fun s -> Str s) (string_size (int_bound 12))
    else
      frequency
        [ (3, map (fun s -> Str s) (string_size (int_bound 40)));
          (1, map (fun l -> List l) (list_size (int_bound 5) (gen (depth - 1)))) ]
  in
  QCheck.make ~print:(Fmt.to_to_string pp) (gen 3)

let property_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"roundtrip" arb_item (fun item ->
           item_equal item (decode (encode item))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"encoding is injective-ish"
         (QCheck.pair arb_item arb_item) (fun (a, b) ->
           item_equal a b || not (String.equal (encode a) (encode b))));
    (* the in-place writers against the item encoder *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"put_str and str_size match encode"
         QCheck.(string_of_size Gen.(0 -- 80))
         (fun s ->
           let b = Bytes.create (str_size s) in
           put_str b 0 s = Bytes.length b && String.equal (Bytes.to_string b) (encode (Str s))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"put_int and int_size match encode_int"
         QCheck.(oneof [ int_bound 300; map abs int; oneofl [ 0; 0x7f; 0x80; max_int ] ])
         (fun n ->
           let b = Bytes.create (int_size n) in
           put_int b 0 n = Bytes.length b
           && String.equal (Bytes.to_string b) (encode (encode_int n))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"put_header matches a list's encoding" arb_item
         (fun item ->
           match item with
           | Str _ -> true
           | List items ->
             let payload = String.concat "" (List.map encode items) in
             let n = String.length payload in
             let b = Bytes.create (header_len n + n) in
             let pos = put_header b 0 0xc0 n in
             Bytes.blit_string payload 0 b pos n;
             pos + n = Bytes.length b && String.equal (Bytes.to_string b) (encode item)))
  ]

(* ---- the encoder and the in-place readers against [Rlp_ref] ---- *)

(* Items with strings on both sides of the short/long header boundary (55
   and 56 bytes), so lists reach long headers too. *)
let arb_wide_item =
  let open QCheck.Gen in
  let str =
    map (fun s -> Str s) (string_size (oneof [ int_bound 3; int_bound 60; int_range 54 300 ]))
  in
  let rec gen depth =
    if depth = 0 then str
    else
      frequency
        [ (3, str); (1, map (fun l -> List l) (list_size (int_bound 6) (gen (depth - 1)))) ]
  in
  QCheck.make ~print:(Fmt.to_to_string pp) (gen 3)

(* The item at [pos], read through the in-place readers alone. *)
let rec read s pos limit =
  let stop = item_end s pos limit in
  let a = payload_start s pos in
  if is_list s pos then begin
    let rec items acc p =
      if p = stop then List.rev acc
      else
        let it, p' = read s p stop in
        items (it :: acc) p'
    in
    (List (items [] a), stop)
  end
  else (Str (String.sub s a (stop - a)), stop)

let read_whole s =
  let item, stop = read s 0 (String.length s) in
  if stop <> String.length s then raise (Decode_error "trailing bytes");
  item

(* [Some item] when accepted, [None] when rejected with [Decode_error]. *)
let outcome f s = match f s with item -> Some item | exception Decode_error _ -> None

(* The readers, [decode] and the reference decoder accept the same inputs
   and read the same items out of them. *)
let agree s =
  let r = outcome read_whole s in
  let same a b =
    match (a, b) with Some x, Some y -> item_equal x y | None, None -> true | _ -> false
  in
  same r (outcome decode s) && same r (outcome Rlp_ref.decode s)

(* Every prefix of [s], [s] itself, and [s] with one more byte. *)
let truncations s = List.init (String.length s + 1) (fun k -> String.sub s 0 k) @ [ s ^ "\x00" ]

let reader_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"encode equals the reference encoder" arb_wide_item
         (fun item -> String.equal (encode item) (Rlp_ref.encode item)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"encode_int equals the reference"
         QCheck.(oneof [ int_bound 300; map abs int; oneofl [ 0; 0x7f; 0x80; max_int ] ])
         (fun n -> item_equal (encode_int n) (Rlp_ref.encode_int n)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"readers agree with decode on every truncation"
         arb_wide_item (fun item -> List.for_all agree (truncations (encode item))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:1000 ~name:"readers agree with decode on arbitrary bytes"
         (* random bytes, with the header bytes at each boundary overweighted *)
         QCheck.(
           string_gen_of_size
             Gen.(int_bound 24)
             Gen.(
               oneof
                 [ char;
                   oneofl
                     [ '\x00'; '\x01'; '\x38'; '\x80'; '\x81'; '\xa0'; '\xb8'; '\xb9'; '\xc0';
                       '\xc1'; '\xf8'; '\xf9' ] ]))
         agree);
    t "readers agree with decode on non-minimal forms" (fun () ->
        List.iter
          (fun (name, enc) ->
            Alcotest.(check bool) name true (List.for_all agree (truncations enc)))
          (Test_trie.malformed
          @ [ ("0x05 under a header", "\x81\x05");
              ("short length in a long header", "\xb8\x01v");
              ("leading zero length", "\xb9\x00\x38" ^ String.make 56 'v');
              ("list with a leading zero length", "\xf9\x00\x38" ^ String.make 56 '\x01') ]));
    t "int_at reads as the reference decode_int does" (fun () ->
        let int f s = match f s with n -> Some n | exception Decode_error _ -> None in
        List.iter
          (fun s ->
            let r = int (fun s -> let e = encode (Str s) in int_at e 0 (String.length e)) s in
            let d = int (fun s -> Rlp_ref.decode_int (Str s)) s in
            Alcotest.(check (option int)) (Khash.Keccak.to_hex s) d r)
          [ ""; "\x00"; "\x01"; "\x00\x01"; "\x7f\xff"; String.make 8 '\x7f'; String.make 8 '\xff';
            String.make 9 '\x01' ];
        Alcotest.(check bool) "a list raises" true
          (match int_at "\xc1\x01" 0 2 with _ -> false | exception Decode_error _ -> true)) ]

let suite = unit_tests @ property_tests @ reader_tests
