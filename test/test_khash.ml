(* Keccak-256 tests: published vectors, block-boundary behaviour,
   structural properties, agreement with the loop reference in [Keccak_ref],
   and concurrent hashing from two domains. *)

let t name f = Alcotest.test_case name `Quick f
let hex = Khash.Keccak.digest_hex

let unit_tests =
  [ t "empty string vector" (fun () ->
        Alcotest.(check string) "keccak(\"\")"
          "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470" (hex ""));
    t "abc vector" (fun () ->
        Alcotest.(check string) "keccak(\"abc\")"
          "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45" (hex "abc"));
    t "digest is 32 bytes" (fun () ->
        List.iter
          (fun s -> Alcotest.(check int) s 32 (String.length (Khash.Keccak.digest s)))
          [ ""; "x"; String.make 135 'a'; String.make 136 'a'; String.make 137 'a';
            String.make 1000 'b' ]);
    t "deterministic" (fun () ->
        Alcotest.(check string) "same input same hash" (hex "forerunner") (hex "forerunner"));
    t "distinct across rate boundary" (fun () ->
        (* lengths 135/136/137 exercise the padding edge cases *)
        let h135 = hex (String.make 135 'a') in
        let h136 = hex (String.make 136 'a') in
        let h137 = hex (String.make 137 'a') in
        Alcotest.(check bool) "135<>136" true (h135 <> h136);
        Alcotest.(check bool) "136<>137" true (h136 <> h137));
    t "single bit flip changes digest" (fun () ->
        Alcotest.(check bool) "avalanche" true (hex "hello worlc" <> hex "hello world"));
    t "selector of transfer(address,uint256)" (fun () ->
        (* the well-known ERC-20 selector 0xa9059cbb *)
        Alcotest.(check int) "selector" 0xa9059cbb
          (Evm.Abi.selector "transfer(address,uint256)"));
    t "selector of balanceOf(address)" (fun () ->
        Alcotest.(check int) "selector" 0x70a08231 (Evm.Abi.selector "balanceOf(address)"));
    t "digest_u256 big-endian" (fun () ->
        let d = Khash.Keccak.digest "abc" in
        Alcotest.(check string) "same bytes" d
          (U256.to_bytes_be (Khash.Keccak.digest_u256 "abc")));
    t "to_hex" (fun () ->
        Alcotest.(check string) "bytes to hex" "00ff10" (Khash.Keccak.to_hex "\x00\xff\x10"));
    t "to_hex of the abc digest" (fun () ->
        Alcotest.(check string) "to_hex (digest \"abc\")"
          "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
          (Khash.Keccak.to_hex (Khash.Keccak.digest "abc")));
    t "ethereum constants" (fun () ->
        (* keccak(rlp []) is the empty uncle hash, keccak(rlp "") the empty
           trie root *)
        Alcotest.(check string) "keccak(0xc0)"
          "1dcc4de8dec75d7aab85b567b6ccd41ad312451b948a7413f0a142fd40d49347" (hex "\xc0");
        Alcotest.(check string) "keccak(0x80)"
          "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421" (hex "\x80"));
    t "matches the reference at every length 0..600" (fun () ->
        (* covers the rate boundaries 135/136/137, 271/272/273, 407/408/409 *)
        for n = 0 to 600 do
          let msg = String.init n (fun i -> Char.chr (((i * 131) + n) land 0xff)) in
          Alcotest.(check string) (Printf.sprintf "length %d" n)
            (Khash.Keccak.to_hex (Keccak_ref.digest msg)) (hex msg)
        done);
    t "two domains hashing at once agree with a sequential pass" (fun () ->
        (* a state shared between digests would make the domains clobber
           each other's lanes *)
        let run k =
          Array.init 2000 (fun i ->
              Khash.Keccak.digest
                (Printf.sprintf "domain %d input %d %s" k i (String.make (i mod 300) 'q')))
        in
        let sequential = [ run 0; run 1 ] in
        let domains = List.map (fun k -> Domain.spawn (fun () -> run k)) [ 0; 1 ] in
        List.iter2
          (fun want d -> Alcotest.(check (array string)) "same digests" want (Domain.join d))
          sequential domains);
    t "sha256 empty vector" (fun () ->
        Alcotest.(check string) "sha256(\"\")"
          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
          (Khash.Sha256.digest_hex ""));
    t "sha256 abc vector" (fun () ->
        Alcotest.(check string) "sha256(\"abc\")"
          "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
          (Khash.Sha256.digest_hex "abc"));
    t "sha256 two-block message" (fun () ->
        (* 56-byte message forces the padding into a second block *)
        Alcotest.(check string) "nist vector"
          "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
          (Khash.Sha256.digest_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
    t "sha256 length always 32" (fun () ->
        List.iter
          (fun n -> Alcotest.(check int) "len" 32 (String.length (Khash.Sha256.digest (String.make n 'z'))))
          [ 0; 1; 55; 56; 57; 63; 64; 65; 1000 ])
  ]

let property_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"no collisions on distinct strings"
         QCheck.(pair string string)
         (fun (a, b) ->
           a = b || Khash.Keccak.digest a <> Khash.Keccak.digest b));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"length always 32" QCheck.string (fun s ->
           String.length (Khash.Keccak.digest s) = 32));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"agrees with the reference up to 2 KB"
         QCheck.(string_of_size Gen.(0 -- 2048))
         (fun s -> Khash.Keccak.digest s = Keccak_ref.digest s));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"digest_u256 is the digest read big-endian"
         QCheck.(string_of_size Gen.(0 -- 300))
         (fun s ->
           U256.equal (Khash.Keccak.digest_u256 s) (U256.of_bytes_be (Khash.Keccak.digest s))))
  ]

(* Appended after the other lists so the earlier cases keep their indices. *)
let scratch_state_tests =
  [ t "two domains hashing random messages at once agree with the reference" (fun () ->
        (* each digest absorbs into its own state on the C stack; lengths up to 300
           cross the 136-byte rate, so some digests run two or three
           permutations while the other domain is mid-digest *)
        let messages k =
          let rng = Random.State.make [| 0x6b; k |] in
          Array.init 1000 (fun _ ->
              String.init (Random.State.int rng 301) (fun _ ->
                  Char.chr (Random.State.int rng 256)))
        in
        let inputs = [ messages 0; messages 1 ] in
        let domains =
          List.map
            (fun msgs -> Domain.spawn (fun () -> Array.map Khash.Keccak.digest msgs))
            inputs
        in
        List.iter2
          (fun msgs d ->
            Alcotest.(check (array string)) "reference digests"
              (Array.map Keccak_ref.digest msgs) (Domain.join d))
          inputs domains);
    t "a digest allocates only its 32-byte result" (fun () ->
        (* 6 words: the string's header and 5 data words; a fresh 200-byte
           state would add 26 more *)
        let per_digest msg =
          let n = 1000 in
          ignore (Khash.Keccak.digest msg : string);
          let before = Gc.minor_words () in
          for _ = 1 to n do
            ignore (Sys.opaque_identity (Khash.Keccak.digest msg) : string)
          done;
          (Gc.minor_words () -. before) /. float_of_int n
        in
        List.iter
          (fun len ->
            let w = per_digest (String.make len 'k') in
            Alcotest.(check bool)
              (Printf.sprintf "%d-byte message: %.1f minor words per digest <= 8" len w)
              true (w <= 8.0))
          [ 0; 32; 136; 300 ])
  ]

(* The C kernel against the OCaml reference: every length class of the
   sponge (empty, a short tail, exactly one block, one block and a byte,
   several blocks), bytes the kernel must not treat as terminators, one long
   message, and the allocation and permutation counts. *)
let reference_check msg =
  Alcotest.(check string)
    (Printf.sprintf "length %d" (String.length msg))
    (Khash.Keccak.to_hex (Keccak_ref.digest msg)) (hex msg)

let pseudo_random_message n =
  let rng = Random.State.make [| 0x4b; n |] in
  String.init n (fun _ -> Char.chr (Random.State.int rng 256))

let minor_words_per_call f =
  let n = 1000 in
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let kernel_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"kernel agrees with the reference over lengths 0..1100"
         QCheck.(string_of_size Gen.(0 -- 1100))
         (fun s -> Khash.Keccak.digest s = Keccak_ref.digest s));
    t "kernel matches the reference at the sponge boundaries" (fun () ->
        List.iter
          (fun n -> reference_check (pseudo_random_message n))
          [ 0; 1; 135; 136; 137; 271; 272; 273; 1088 ]);
    t "embedded NUL bytes are message bytes" (fun () ->
        (* the kernel takes the OCaml string's length, so a NUL neither ends
           the message nor hashes like a shorter one *)
        List.iter reference_check
          [ "\000"; "\000\000"; "a\000b"; "abc\000"; String.make 136 '\000';
            String.make 300 '\000';
            String.mapi (fun i c -> if i mod 7 = 0 then '\000' else c) (pseudo_random_message 500) ];
        Alcotest.(check bool) "trailing NUL changes the digest" true (hex "abc" <> hex "abc\000"));
    t "a 100 KB message matches the reference" (fun () ->
        reference_check (pseudo_random_message 100_000));
    t "digest_u256 allocates only its word" (fun () ->
        (* the word alone, built from four limbs read out of 32 bytes (a
           record and its boxed limbs); a fresh 32-byte digest string would
           add 5 more words *)
        let bytes = Bytes.make 32 'w' in
        let word =
          minor_words_per_call (fun () ->
              U256.of_limbs (Bytes.get_int64_be bytes 24) (Bytes.get_int64_be bytes 16)
                (Bytes.get_int64_be bytes 8) (Bytes.get_int64_be bytes 0))
        in
        List.iter
          (fun len ->
            let msg = String.make len 'u' in
            let w = minor_words_per_call (fun () -> Khash.Keccak.digest_u256 msg) in
            Alcotest.(check bool)
              (Printf.sprintf "%d-byte message: %.1f minor words per digest_u256 <= %.1f" len w
                 word)
              true (w <= word))
          [ 0; 32; 136; 300 ]);
    t "permutations: one per full block plus the padded one" (fun () ->
        let digests = Obs.counter "khash.digests" in
        let perms = Obs.counter "khash.permutations" in
        let count len =
          Obs.reset ();
          Obs.set_enabled true;
          Fun.protect
            ~finally:(fun () -> Obs.set_enabled false)
            (fun () -> ignore (Khash.Keccak.digest (String.make len 'p') : string));
          (Obs.count digests, Obs.count perms)
        in
        List.iter
          (fun (len, want) ->
            Alcotest.(check (pair int int)) (Printf.sprintf "length %d" len) (1, want) (count len))
          [ (0, 1); (135, 1); (136, 2); (271, 2); (272, 3) ])
  ]

let suite = unit_tests @ property_tests @ scratch_state_tests @ kernel_tests
