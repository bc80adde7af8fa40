(* Unit and property tests for the 256-bit word arithmetic. *)

let u = U256.of_int
let check_u = Alcotest.testable U256.pp U256.equal
let eq name a b = Alcotest.check check_u name a b
let t name f = Alcotest.test_case name `Quick f

(* arbitrary full-width word from four random int64 limbs *)
let arb_u256 =
  QCheck.make
    ~print:(fun v -> U256.to_hex v)
    QCheck.Gen.(
      map
        (fun (a, b, c, d) -> U256.of_limbs a b c d)
        (quad int64 int64 int64 int64))

(* words biased toward interesting magnitudes *)
let arb_mixed =
  QCheck.make
    ~print:(fun v -> U256.to_hex v)
    QCheck.Gen.(
      oneof
        [ map (fun n -> U256.of_int (abs n)) small_int;
          map (fun (a, b, c, d) -> U256.of_limbs a b c d) (quad int64 int64 int64 int64);
          return U256.zero; return U256.one; return U256.max_value ])

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name arb f)

let unit_tests =
  [ t "zero and one" (fun () ->
        eq "0+1" U256.one (U256.add U256.zero U256.one);
        Alcotest.(check bool) "is_zero" true (U256.is_zero U256.zero);
        Alcotest.(check bool) "one not zero" false (U256.is_zero U256.one));
    t "wrap-around add" (fun () -> eq "max+1" U256.zero (U256.add U256.max_value U256.one));
    t "wrap-around sub" (fun () -> eq "0-1" U256.max_value (U256.sub U256.zero U256.one));
    t "mul small" (fun () ->
        eq "123*456" (u (123 * 456)) (U256.mul (u 123) (u 456)));
    t "mul big" (fun () ->
        eq "shift via mul"
          (U256.shift_left U256.one 128)
          (U256.mul (U256.shift_left U256.one 64) (U256.shift_left U256.one 64)));
    t "div basic" (fun () ->
        eq "17/5" (u 3) (U256.div (u 17) (u 5));
        eq "17%5" (u 2) (U256.rem (u 17) (u 5)));
    t "div by zero is zero (EVM)" (fun () ->
        eq "x/0" U256.zero (U256.div (u 7) U256.zero);
        eq "x%0" U256.zero (U256.rem (u 7) U256.zero));
    t "big decimal division" (fun () ->
        Alcotest.(check string)
          "10^24 / 7" "142857142857142857142857"
          (U256.to_decimal (U256.div (U256.of_string "1000000000000000000000000") (u 7))));
    t "sdiv signs" (fun () ->
        eq "-7/2" (U256.neg (u 3)) (U256.sdiv (U256.neg (u 7)) (u 2));
        eq "7/-2" (U256.neg (u 3)) (U256.sdiv (u 7) (U256.neg (u 2)));
        eq "-7/-2" (u 3) (U256.sdiv (U256.neg (u 7)) (U256.neg (u 2))));
    t "sdiv overflow rule" (fun () ->
        let min_signed = U256.shift_left U256.one 255 in
        eq "min/-1" min_signed (U256.sdiv min_signed U256.max_value));
    t "srem follows dividend sign" (fun () ->
        eq "-7%3" (U256.neg U256.one) (U256.srem (U256.neg (u 7)) (u 3));
        eq "7%-3" U256.one (U256.srem (u 7) (U256.neg (u 3))));
    t "addmod mulmod basic" (fun () ->
        eq "addmod" (u 2) (U256.addmod (u 10) (u 10) (u 6));
        eq "mulmod" (u 4) (U256.mulmod (u 10) (u 10) (u 6));
        eq "addmod 0" U256.zero (U256.addmod (u 1) (u 1) U256.zero));
    t "addmod uses 257-bit sum" (fun () ->
        (* (max + max) mod max = 0 — would be wrong with wrapping add *)
        eq "max+max mod max" U256.zero (U256.addmod U256.max_value U256.max_value U256.max_value);
        eq "max+2 mod max" (u 2)
          (U256.addmod U256.max_value (u 2) U256.max_value));
    t "mulmod uses 512-bit product" (fun () ->
        let big = U256.sub U256.max_value (u 4) in
        (* (max-4)^2 mod (max-1) = 9 mod (max-1), since max-4 = -3 mod (max-1)...
           check against an independent identity instead: (m-1)^2 mod m = 1 *)
        let m = big in
        let m1 = U256.sub m U256.one in
        eq "(m-1)^2 mod m" U256.one (U256.mulmod m1 m1 m));
    t "exp" (fun () ->
        eq "2^10" (u 1024) (U256.exp (u 2) (u 10));
        eq "x^0" U256.one (U256.exp (u 12345) U256.zero);
        eq "0^0" U256.one (U256.exp U256.zero U256.zero);
        eq "2^256 wraps" U256.zero (U256.exp (u 2) (u 256)));
    t "signextend" (fun () ->
        eq "0xff byte0" U256.max_value (U256.signextend U256.zero (u 0xff));
        eq "0x7f byte0" (u 0x7f) (U256.signextend U256.zero (u 0x7f));
        eq "k>=31 noop" (u 0xff) (U256.signextend (u 31) (u 0xff)));
    t "byte extraction" (fun () ->
        let v = U256.of_hex "0x112233" in
        eq "byte 31" (u 0x33) (U256.byte (u 31) v);
        eq "byte 30" (u 0x22) (U256.byte (u 30) v);
        eq "byte 0" U256.zero (U256.byte U256.zero v);
        eq "byte 32 out of range" U256.zero (U256.byte (u 32) v));
    t "shifts" (fun () ->
        eq "1<<255 >>255" U256.one (U256.shift_right (U256.shift_left U256.one 255) 255);
        eq "shl 256" U256.zero (U256.shift_left U256.one 256);
        eq "shr 256" U256.zero (U256.shift_right U256.max_value 256);
        eq "sar negative" U256.max_value (U256.shift_right_arith U256.max_value 10);
        eq "sar positive" (u 1) (U256.shift_right_arith (u 2) 1));
    t "sar fills sign bits" (fun () ->
        let v = U256.shift_left U256.one 255 in
        eq "sar 1 of min" (U256.logor v (U256.shift_left U256.one 254))
          (U256.shift_right_arith v 1));
    t "hex roundtrip" (fun () ->
        let s = "0xdeadbeef00112233445566778899aabbccddeeff0102030405060708090a0b" in
        Alcotest.(check string) "hex" s (U256.to_hex (U256.of_hex s));
        eq "0x0" U256.zero (U256.of_hex "0x0"));
    t "decimal roundtrip" (fun () ->
        List.iter
          (fun s -> Alcotest.(check string) s s (U256.to_decimal (U256.of_decimal s)))
          [ "0"; "1"; "42"; "115792089237316195423570985008687907853269984665640564039457584007913129639935" ]);
    t "of_decimal rejects overflow" (fun () ->
        Alcotest.check_raises "overflow" (Invalid_argument "U256.of_decimal: overflow")
          (fun () ->
            ignore
              (U256.of_decimal
                 "115792089237316195423570985008687907853269984665640564039457584007913129639936")));
    t "bytes_be roundtrip" (fun () ->
        let v = U256.of_hex "0x0102030405" in
        let b = U256.to_bytes_be v in
        Alcotest.(check int) "len" 32 (String.length b);
        eq "roundtrip" v (U256.of_bytes_be b);
        eq "short input zero-extends" (u 0xff) (U256.of_bytes_be "\xff"));
    t "comparisons" (fun () ->
        Alcotest.(check bool) "lt" true (U256.lt (u 1) (u 2));
        Alcotest.(check bool) "max > 0 unsigned" true (U256.gt U256.max_value U256.zero);
        Alcotest.(check bool) "max < 0 signed" true (U256.slt U256.max_value U256.zero);
        Alcotest.(check bool) "sgt" true (U256.sgt (u 1) (U256.neg (u 1))));
    t "bits and byte_size" (fun () ->
        Alcotest.(check int) "bits 0" 0 (U256.bits U256.zero);
        Alcotest.(check int) "bits 1" 1 (U256.bits U256.one);
        Alcotest.(check int) "bits 255" 8 (U256.bits (u 255));
        Alcotest.(check int) "bits max" 256 (U256.bits U256.max_value);
        Alcotest.(check int) "bytesize 256" 2 (U256.byte_size (u 256)));
    t "to_int_opt bounds" (fun () ->
        Alcotest.(check (option int)) "small" (Some 7) (U256.to_int_opt (u 7));
        Alcotest.(check (option int)) "max_value" None (U256.to_int_opt U256.max_value))
  ]

let property_tests =
  [ prop "add commutative" (QCheck.pair arb_u256 arb_u256) (fun (a, b) ->
        U256.equal (U256.add a b) (U256.add b a));
    prop "add associative" (QCheck.triple arb_u256 arb_u256 arb_u256) (fun (a, b, c) ->
        U256.equal (U256.add (U256.add a b) c) (U256.add a (U256.add b c)));
    prop "sub inverts add" (QCheck.pair arb_u256 arb_u256) (fun (a, b) ->
        U256.equal a (U256.sub (U256.add a b) b));
    prop "neg is 0 - x" arb_u256 (fun a -> U256.equal (U256.neg a) (U256.sub U256.zero a));
    prop "mul commutative" (QCheck.pair arb_u256 arb_u256) (fun (a, b) ->
        U256.equal (U256.mul a b) (U256.mul b a));
    prop "one-limb mul is the exact product" (QCheck.pair QCheck.int64 QCheck.int64) (fun (x, y) ->
        (* both operands below 2^64, so the product is below 2^128 and
           mulmod by max_value (the 512-bit schoolbook) returns it unchanged *)
        let a = U256.of_int64 x and b = U256.of_int64 y in
        U256.equal (U256.mul a b) (U256.mulmod a b U256.max_value));
    prop "mul distributes" (QCheck.triple arb_u256 arb_u256 arb_u256) (fun (a, b, c) ->
        U256.equal (U256.mul a (U256.add b c)) (U256.add (U256.mul a b) (U256.mul a c)));
    prop "divmod invariant" (QCheck.pair arb_mixed arb_mixed) (fun (a, b) ->
        U256.is_zero b
        || U256.equal a (U256.add (U256.mul (U256.div a b) b) (U256.rem a b)));
    prop "rem < divisor" (QCheck.pair arb_mixed arb_mixed) (fun (a, b) ->
        U256.is_zero b || U256.lt (U256.rem a b) b);
    prop "sdiv/srem invariant" (QCheck.pair arb_mixed arb_mixed) (fun (a, b) ->
        U256.is_zero b
        || U256.equal a (U256.add (U256.mul (U256.sdiv a b) b) (U256.srem a b)));
    prop "addmod matches wide add" (QCheck.triple arb_mixed arb_mixed arb_mixed)
      (fun (a, b, m) ->
        U256.is_zero m
        ||
        (* compare against rem of both halves: ((a mod m) + (b mod m)) mod m *)
        U256.equal (U256.addmod a b m)
          (U256.addmod (U256.rem a m) (U256.rem b m) m));
    prop "hex roundtrip" arb_u256 (fun a -> U256.equal a (U256.of_hex (U256.to_hex a)));
    prop "decimal roundtrip" arb_u256 (fun a ->
        U256.equal a (U256.of_decimal (U256.to_decimal a)));
    prop "bytes roundtrip" arb_u256 (fun a ->
        U256.equal a (U256.of_bytes_be (U256.to_bytes_be a)));
    prop "compare total order vs decimal" (QCheck.pair arb_mixed arb_mixed) (fun (a, b) ->
        let c = U256.compare a b in
        let dc =
          let da = U256.to_decimal a and db = U256.to_decimal b in
          let la = String.length da and lb = String.length db in
          if la <> lb then compare la lb else compare da db
        in
        (c < 0) = (dc < 0) && (c = 0) = (dc = 0));
    prop "shift_left equals mul by power" (QCheck.pair arb_u256 QCheck.small_nat)
      (fun (a, n) ->
        let n = n mod 64 in
        U256.equal (U256.shift_left a n) (U256.mul a (U256.exp (U256.of_int 2) (U256.of_int n))));
    prop "shr then shl masks low bits" (QCheck.pair arb_u256 QCheck.small_nat) (fun (a, n) ->
        let n = n mod 256 in
        let v = U256.shift_left (U256.shift_right a n) n in
        U256.equal v (U256.logand a (U256.shift_left U256.max_value n)));
    prop "lognot involutive" arb_u256 (fun a -> U256.equal a (U256.lognot (U256.lognot a)));
    prop "xor self is zero" arb_u256 (fun a -> U256.is_zero (U256.logxor a a));
    prop "byte reassembly" arb_u256 (fun a ->
        let rec go i acc =
          if i = 32 then acc
          else go (i + 1) (U256.logor (U256.shift_left acc 8) (U256.byte (U256.of_int i) a))
        in
        U256.equal a (go 0 U256.zero));
    prop "testbit matches shift" (QCheck.pair arb_u256 QCheck.small_nat) (fun (a, n) ->
        let n = n mod 256 in
        U256.testbit a n = not (U256.is_zero (U256.logand (U256.shift_right a n) U256.one)));
    (* the 32-byte read is the reference for the short ones *)
    prop "a short read is the zero-padded 32-byte read"
      QCheck.(pair (string_of_size Gen.(0 -- 40)) (pair small_nat small_nat))
      (fun (s, (a, b)) ->
        let n = String.length s in
        let off = if n = 0 then 0 else a mod (n + 1) in
        let len = min 32 (b mod (n - off + 1)) in
        let padded = String.make (32 - len) '\000' ^ String.sub s off len in
        U256.equal (U256.of_bytes_be ~off ~len s) (U256.of_bytes_be padded));
    prop "blit_be writes one slice of the encoding and nothing else"
      QCheck.(pair arb_u256 (triple small_nat small_nat small_nat))
      (fun (v, (a, b, c)) ->
        let src_off = a mod 33 in
        let len = b mod (33 - src_off) in
        let dst = Bytes.make 40 '\x5a' in
        let dst_off = c mod (41 - len) in
        U256.blit_be v src_off dst dst_off len;
        let want =
          String.make dst_off '\x5a'
          ^ String.sub (U256.to_bytes_be v) src_off len
          ^ String.make (40 - dst_off - len) '\x5a'
        in
        String.equal (Bytes.to_string dst) want) ]

let range_tests =
  [ t "blit_be rejects out-of-range slices" (fun () ->
        let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
        let dst = Bytes.create 32 in
        List.iter
          (fun (src_off, dst_off, len) ->
            Alcotest.(check bool)
              (Printf.sprintf "src %d dst %d len %d" src_off dst_off len)
              true
              (raises (fun () -> U256.blit_be U256.one src_off dst dst_off len)))
          [ (-1, 0, 1); (1, 0, 32); (0, -1, 1); (0, 1, 32); (12, 13, 20); (0, 0, -1) ]) ]

let suite = unit_tests @ property_tests @ range_tests
