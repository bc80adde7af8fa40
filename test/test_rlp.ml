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

let suite = unit_tests @ property_tests
