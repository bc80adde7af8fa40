(* EVM interpreter tests: opcode semantics via small assembled programs,
   control flow, gas accounting, message calls, and transaction-level
   processing. *)

open State
open Evm

let t name f = Alcotest.test_case name `Quick f
let u = U256.of_int
let check_u = Alcotest.testable U256.pp U256.equal
let alice = Address.of_int 0xA11CE
let target = Address.of_int 0x7A67
let coinbase = Address.of_int 0xC01

let benv : Env.block_env =
  {
    coinbase;
    timestamp = 1_600_000_042L;
    number = 777L;
    difficulty = u 2;
    gas_limit = 10_000_000;
    chain_id = 5;
    block_hash = (fun n -> U256.of_int64 (Int64.mul n 31L));
  }

(* Run [items] as the code of [target] with call data [data]; returns the
   receipt. *)
let run ?(data = "") ?(value = U256.zero) ?(gas_limit = 500_000) ?(setup = fun _ -> ()) items =
  let bk = Statedb.Backend.create () in
  let st = Statedb.create bk ~root:Statedb.empty_root in
  Statedb.set_balance st alice (U256.of_string "1000000000000000000000");
  Statedb.set_code st target (Asm.assemble items);
  setup st;
  let tx : Env.tx =
    { sender = alice; to_ = Some target; nonce = 0; value; data; gas_limit; gas_price = u 1 }
  in
  (Processor.execute_tx st benv tx, st)

(* Program returning the top of stack after running [items]. *)
let run_word ?data ?setup items =
  let r, _ = run ?data ?setup (items @ Asm.return_word) in
  match r.status with
  | Processor.Success -> Abi.decode_word r.output 0
  | Processor.Reverted -> Alcotest.fail "unexpected revert"
  | Processor.Invalid m -> Alcotest.fail ("invalid: " ^ m)

let expect_word ?data ?setup name expected items =
  Alcotest.check check_u name expected (run_word ?data ?setup items)

open Asm

let arithmetic_tests =
  [ t "add/sub/mul/div on stack" (fun () ->
        expect_word "3+4" (u 7) [ push_int 4; push_int 3; op Op.ADD ];
        expect_word "10-4" (u 6) [ push_int 4; push_int 10; op Op.SUB ];
        expect_word "6*7" (u 42) [ push_int 7; push_int 6; op Op.MUL ];
        expect_word "42/5" (u 8) [ push_int 5; push_int 42; op Op.DIV ]);
    t "operand order: SUB is top minus second" (fun () ->
        (* push 10 then 4: top=4... push_int 4 first means 4 is deeper *)
        expect_word "sub order" (u 6) [ push_int 4; push_int 10; op Op.SUB ]);
    t "mod family" (fun () ->
        expect_word "17 mod 5" (u 2) [ push_int 5; push_int 17; op Op.MOD ];
        expect_word "addmod" (u 2) [ push_int 6; push_int 10; push_int 10; op Op.ADDMOD ];
        expect_word "mulmod" (u 4) [ push_int 6; push_int 10; push_int 10; op Op.MULMOD ]);
    t "exp" (fun () -> expect_word "3^4" (u 81) [ push_int 4; push_int 3; op Op.EXP ]);
    t "comparisons" (fun () ->
        expect_word "1<2" U256.one [ push_int 2; push_int 1; op Op.LT ];
        expect_word "2>1" U256.one [ push_int 1; push_int 2; op Op.GT ];
        expect_word "eq" U256.one [ push_int 5; push_int 5; op Op.EQ ];
        expect_word "iszero 0" U256.one [ push_int 0; op Op.ISZERO ]);
    t "signed comparisons" (fun () ->
        (* -1 < 1 signed *)
        expect_word "slt" U256.one
          [ push_int 1; push U256.max_value; op Op.SLT ]);
    t "bitwise" (fun () ->
        expect_word "and" (u 0b1000) [ push_int 0b1100; push_int 0b1010; op Op.AND ];
        expect_word "or" (u 0b1110) [ push_int 0b1100; push_int 0b1010; op Op.OR ];
        expect_word "xor" (u 0b0110) [ push_int 0b1100; push_int 0b1010; op Op.XOR ];
        expect_word "shl" (u 8) [ push_int 1; push_int 3; op Op.SHL ];
        expect_word "shr" (u 2) [ push_int 16; push_int 3; op Op.SHR ]);
    t "byte opcode" (fun () ->
        expect_word "byte 31 of 0x1234" (u 0x34) [ push_int 0x1234; push_int 31; op Op.BYTE ])
  ]

let stack_memory_tests =
  [ t "dup and swap" (fun () ->
        expect_word "dup1 add doubles" (u 10) [ push_int 5; op (Op.DUP 1); op Op.ADD ];
        expect_word "swap1 sub" (u 6) [ push_int 10; push_int 4; op (Op.SWAP 1); op Op.SUB ]);
    t "deep dup16/swap16" (fun () ->
        let fill = List.concat_map (fun i -> [ push_int i ]) (List.init 16 (fun i -> i)) in
        (* stack: 15..0 top; DUP16 copies the deepest (0) *)
        expect_word "dup16" (u 0) (fill @ [ op (Op.DUP 16) ]));
    t "mstore/mload roundtrip" (fun () ->
        expect_word "mem word" (u 123456)
          [ push_int 123456; push_int 64; op Op.MSTORE; push_int 64; op Op.MLOAD ]);
    t "mstore8 writes one byte" (fun () ->
        (* write 0xAB at offset 31 -> reading word at 0 gives 0xAB *)
        expect_word "mstore8" (u 0xab)
          [ push_int 0x1ab; push_int 31; op Op.MSTORE8; push_int 0; op Op.MLOAD ]);
    t "msize is word aligned" (fun () ->
        expect_word "msize after byte 5" (u 32)
          [ push_int 1; push_int 5; op Op.MSTORE8; op Op.MSIZE ]);
    t "uninitialized memory is zero" (fun () ->
        expect_word "fresh mload" U256.zero [ push_int 1000; op Op.MLOAD ]);
    t "pop removes" (fun () ->
        expect_word "pop" (u 1) [ push_int 1; push_int 2; op Op.POP ]);
    t "stack underflow fails tx" (fun () ->
        (* the next frame reuses this frame's operand stack: the 16 words
           left on it must not feed the ADD *)
        ignore (run (List.init 16 push_int @ [ op Op.STOP ]));
        let r, _ = run [ op Op.ADD ] in
        Alcotest.(check bool) "reverted" true (r.status = Processor.Reverted);
        Alcotest.(check int) "all gas consumed" 500_000 r.gas_used)
  ]

let env_tests =
  [ t "block environment opcodes" (fun () ->
        expect_word "timestamp" (U256.of_int64 benv.timestamp) [ op Op.TIMESTAMP ];
        expect_word "number" (u 777) [ op Op.NUMBER ];
        expect_word "coinbase" (Address.to_u256 coinbase) [ op Op.COINBASE ];
        expect_word "chainid" (u 5) [ op Op.CHAINID ];
        expect_word "difficulty" (u 2) [ op Op.DIFFICULTY ];
        expect_word "gaslimit" (u 10_000_000) [ op Op.GASLIMIT ]);
    t "blockhash window" (fun () ->
        expect_word "recent" (U256.of_int64 (Int64.mul 776L 31L)) [ push_int 776; op Op.BLOCKHASH ];
        expect_word "too old" U256.zero [ push_int 1; op Op.BLOCKHASH ];
        expect_word "future" U256.zero [ push_int 777; op Op.BLOCKHASH ]);
    t "caller/origin/address/callvalue" (fun () ->
        expect_word "caller" (Address.to_u256 alice) [ op Op.CALLER ];
        expect_word "origin" (Address.to_u256 alice) [ op Op.ORIGIN ];
        expect_word "address" (Address.to_u256 target) [ op Op.ADDRESS ];
        expect_word "gasprice" U256.one [ op Op.GASPRICE ]);
    t "calldata opcodes" (fun () ->
        let data = U256.to_bytes_be (u 0xbeef) in
        expect_word ~data "calldataload" (u 0xbeef) [ push_int 0; op Op.CALLDATALOAD ];
        expect_word ~data "calldatasize" (u 32) [ op Op.CALLDATASIZE ];
        expect_word ~data "past end is zero" U256.zero [ push_int 64; op Op.CALLDATALOAD ]);
    t "calldatacopy zero pads" (fun () ->
        let data = "\x11\x22" in
        expect_word ~data "copy" (U256.of_hex "0x1122000000000000000000000000000000000000000000000000000000000000")
          [ push_int 32; push_int 0; push_int 0; op Op.CALLDATACOPY; push_int 0; op Op.MLOAD ]);
    t "codesize/codecopy" (fun () ->
        (* copy just the first code byte: PUSH1 = 0x60 *)
        expect_word "codecopy first byte"
          (U256.shift_left (u 0x60) 248)
          [ push_int 1; push_int 0; push_int 0; op Op.CODECOPY; push_int 0; op Op.MLOAD ]);
    t "balance/selfbalance" (fun () ->
        let setup st = Statedb.set_balance st target (u 555) in
        expect_word ~setup "selfbalance" (u 555) [ op Op.SELFBALANCE ];
        expect_word ~setup "balance" (u 555)
          [ push (Address.to_u256 target); op Op.BALANCE ]);
    t "extcodesize/extcodehash" (fun () ->
        let other = Address.of_int 0x0DD in
        let setup st = Statedb.set_code st other "\x00\x01\x02" in
        expect_word ~setup "extcodesize" (u 3)
          [ push (Address.to_u256 other); op Op.EXTCODESIZE ];
        expect_word ~setup "extcodehash" (Khash.Keccak.digest_u256 "\x00\x01\x02")
          [ push (Address.to_u256 other); op Op.EXTCODEHASH ];
        expect_word "hash of missing account" U256.zero
          [ push (u 0x123456); op Op.EXTCODEHASH ])
  ]

let control_tests =
  [ t "jump over revert" (fun () ->
        expect_word "jumped" (u 99)
          ([ push_label "ok"; op Op.JUMP ] @ revert_ @ [ label "ok"; push_int 99 ]));
    t "jumpi taken and not taken" (fun () ->
        expect_word "taken" (u 1)
          ([ push_int 1; push_label "yes"; op Op.JUMPI; push_int 0 ] @ return_word
          @ [ label "yes"; push_int 1 ]);
        expect_word "not taken" (u 0)
          ([ push_int 0; push_label "yes"; op Op.JUMPI; push_int 0 ] @ return_word
          @ [ label "yes"; push_int 1 ]));
    t "invalid jump destination fails" (fun () ->
        let r, _ = run [ push_int 1; op Op.JUMP ] in
        Alcotest.(check bool) "reverted" true (r.status = Processor.Reverted);
        Alcotest.(check int) "all gas" 500_000 r.gas_used);
    t "jump into push data rejected" (fun () ->
        (* offset 1 is the immediate of the first PUSH *)
        let r, _ = run [ push_int 91; push_int 1; op Op.JUMP ] in
        Alcotest.(check bool) "reverted" true (r.status = Processor.Reverted));
    t "pc opcode" (fun () -> expect_word "pc" (u 2) [ push_int 0; op Op.PC ]);
    t "stop returns empty" (fun () ->
        let r, _ = run [ op Op.STOP; push_int 1 ] in
        Alcotest.(check bool) "success" true (r.status = Processor.Success);
        Alcotest.(check string) "no output" "" r.output);
    t "revert with data" (fun () ->
        let r, _ =
          run [ push_int 0xdead; push_int 0; op Op.MSTORE; push_int 32; push_int 0; op Op.REVERT ]
        in
        Alcotest.(check bool) "reverted" true (r.status = Processor.Reverted);
        Alcotest.check check_u "revert data" (u 0xdead) (Abi.decode_word r.output 0));
    t "invalid opcode consumes all gas" (fun () ->
        let r, _ = run [ op Op.INVALID ] in
        Alcotest.(check bool) "reverted" true (r.status = Processor.Reverted);
        Alcotest.(check int) "all gas" 500_000 r.gas_used)
  ]

let storage_log_tests =
  [ t "sstore persists, sload reads" (fun () ->
        let r, st =
          run [ push_int 77; push_int 3; op Op.SSTORE; op Op.STOP ]
        in
        Alcotest.(check bool) "ok" true (r.status = Processor.Success);
        Alcotest.check check_u "stored" (u 77) (Statedb.get_storage st target (u 3)));
    t "revert rolls back storage" (fun () ->
        let setup st = Statedb.set_storage st target (u 3) (u 1) in
        let r, st = run ~setup ([ push_int 99; push_int 3; op Op.SSTORE ] @ revert_) in
        Alcotest.(check bool) "reverted" true (r.status = Processor.Reverted);
        Alcotest.check check_u "rolled back" (u 1) (Statedb.get_storage st target (u 3)));
    t "sha3 of memory" (fun () ->
        expect_word "keccak(32 zero bytes)"
          (Khash.Keccak.digest_u256 (String.make 32 '\000'))
          [ push_int 32; push_int 0; op Op.SHA3 ]);
    t "log emits topics and data" (fun () ->
        let r, _ =
          run
            [ push_int 0xfeed; push_int 0; op Op.MSTORE; push_int 42 (* topic2 *);
              push_int 7 (* topic1 *); push_int 32; push_int 0; op (Op.LOG 2); op Op.STOP ]
        in
        match r.logs with
        | [ l ] ->
          Alcotest.(check int) "topics" 2 (List.length l.topics);
          Alcotest.check check_u "topic1" (u 7) (List.nth l.topics 0);
          Alcotest.check check_u "topic2" (u 42) (List.nth l.topics 1);
          Alcotest.check check_u "data" (u 0xfeed) (U256.of_bytes_be l.log_data)
        | _ -> Alcotest.fail "expected one log");
    t "reverted call drops logs" (fun () ->
        let r, _ =
          run ([ push_int 0; push_int 0; op (Op.LOG 0) ] @ revert_)
        in
        Alcotest.(check int) "no logs" 0 (List.length r.logs))
  ]

(* Direct Memory.store_slice checks (CALLDATACOPY/CODECOPY kernel): the
   blit+fill fast path must keep the per-byte reference semantics at every
   edge — offsets past the source, zero length, and zero padding. *)
let memory_slice_tests =
  let slice ~dst ~src ~src_off ~len =
    let m = Memory.create () in
    (* pre-dirty the window so padding must actively write zeroes *)
    Memory.store m 0 (String.make 96 '\xff');
    Memory.store_slice m ~dst ~src ~src_off ~len;
    m
  in
  [ t "zero length copies nothing and grows nothing" (fun () ->
        let m = Memory.create () in
        Memory.store_slice m ~dst:1000 ~src:"abcd" ~src_off:0 ~len:0;
        Alcotest.(check int) "size untouched" 0 (Memory.size m));
    t "src_off past the end zero-fills the whole range" (fun () ->
        let m = slice ~dst:8 ~src:"abcd" ~src_off:4 ~len:8 in
        Alcotest.(check string) "all zero" (String.make 8 '\000') (Memory.load m 8 8);
        (* neighbours untouched *)
        Alcotest.(check string) "prefix kept" (String.make 8 '\xff') (Memory.load m 0 8));
    t "tail past the source is zero-padded" (fun () ->
        let m = slice ~dst:0 ~src:"abcd" ~src_off:2 ~len:6 in
        Alcotest.(check string) "copy then pad" "cd\000\000\000\000" (Memory.load m 0 6));
    t "negative src_off zero-fills the prefix" (fun () ->
        let m = slice ~dst:0 ~src:"ab" ~src_off:(-2) ~len:6 in
        Alcotest.(check string) "pad, copy, pad" "\000\000ab\000\000" (Memory.load m 0 6));
    t "fast path matches the per-byte reference on a parameter grid" (fun () ->
        let src = "0123456789" in
        let reference ~dst ~src_off ~len =
          let m = Memory.create () in
          Memory.store m 0 (String.make 96 '\xff');
          if len > 0 then
            for i = 0 to len - 1 do
              let c =
                if src_off + i < String.length src && src_off + i >= 0 then src.[src_off + i]
                else '\000'
              in
              Memory.store_byte m (dst + i) (Char.code c)
            done;
          Memory.load m 0 64
        in
        List.iter
          (fun src_off ->
            List.iter
              (fun len ->
                List.iter
                  (fun dst ->
                    Alcotest.(check string)
                      (Printf.sprintf "src_off=%d len=%d dst=%d" src_off len dst)
                      (reference ~dst ~src_off ~len)
                      (let m = slice ~dst ~src ~src_off ~len in
                       Memory.load m 0 64))
                  [ 0; 5; 31 ])
              [ 0; 1; 7; 10; 15 ])
          [ -3; 0; 2; 9; 10; 20 ])
  ]

let obs_tests =
  [ t "execute_tx reports the fork id gauge while Obs is on" (fun () ->
        Test_obs.with_obs (fun () ->
            ignore (run [ op Op.STOP ]);
            Alcotest.(check (float 0.001)) "spec.fork_id"
              (float_of_int !Spec.current.Spec.id)
              (Test_obs.num
                 (Test_obs.member "spec.fork_id"
                    (Test_obs.member "gauges" (Test_obs.registry_json ()))))))
  ]

(* ---- transaction hash: against the Rlp item tree ---- *)

let tx_hash_ref (t : Env.tx) =
  let body =
    Rlp.List
      [ Rlp.Str (Address.to_bytes t.sender);
        Rlp.Str (match t.to_ with Some a -> Address.to_bytes a | None -> "");
        Rlp.encode_int t.nonce; Rlp.Str (U256.to_bytes_be t.value); Rlp.Str t.data;
        Rlp.encode_int t.gas_limit; Rlp.Str (U256.to_bytes_be t.gas_price) ]
  in
  Khash.Keccak.digest (Rlp.encode body)

let arb_tx =
  let open QCheck.Gen in
  let word = map (fun (a, b, c, d) -> U256.of_limbs a b c d) (quad int64 int64 int64 int64) in
  let addr = map (fun s -> Address.of_bytes s) (string_size ~gen:char (return 20)) in
  let num = oneof [ int_bound 300; map abs int; oneofl [ 0; 0x7f; 0x80; max_int ] ] in
  (* data lengths on both sides of the 55-byte short-header limit, and
     bodies long enough for a multi-byte list header *)
  let data = string_size ~gen:char (oneof [ 0 -- 3; 50 -- 60; 250 -- 300 ]) in
  let gen =
    addr >>= fun sender ->
    opt addr >>= fun to_ ->
    num >>= fun nonce ->
    oneof [ word; return U256.zero ] >>= fun value ->
    data >>= fun data ->
    num >>= fun gas_limit ->
    map
      (fun gas_price -> { Env.sender; to_; nonce; value; data; gas_limit; gas_price })
      word
  in
  let print (t : Env.tx) =
    Printf.sprintf "nonce %d, %d data bytes" t.nonce (String.length t.data)
  in
  QCheck.make ~print gen

let tx_hash_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"tx_hash equals the hash of Rlp.encode" arb_tx
         (fun tx -> String.equal (Env.tx_hash tx) (tx_hash_ref tx))) ]

let suite =
  arithmetic_tests @ stack_memory_tests @ env_tests @ control_tests @ storage_log_tests
  @ memory_slice_tests @ obs_tests @ tx_hash_tests
