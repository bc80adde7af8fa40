(* Gas-table pins: the decoder hoists each opcode's static charge into the
   decoded instruction at decode time (DESIGN.md §11), so the hoisted table
   must equal the Istanbul schedule for every byte, forever.  One case per
   opcode class pins the charge to the literal Istanbul number it is meant
   to be, so a schedule edit that silently shifts a class fails here and
   not three layers up in a receipt diff. *)

open Evm

let t name f = Alcotest.test_case name `Quick f
let ist = Spec.resolve Spec.Istanbul
let range f lo hi = List.init (hi - lo + 1) (fun i -> f (lo + i))

(* The Istanbul classes as (charge, members).  Every assigned opcode byte
   sits in exactly one class ([all_bytes] checks it). *)
let zero = (0, [ Op.STOP; Op.RETURN; Op.REVERT; Op.INVALID ])

let base =
  ( 2,
    [ Op.ADDRESS; Op.ORIGIN; Op.CALLER; Op.CALLVALUE; Op.CALLDATASIZE; Op.CODESIZE;
      Op.GASPRICE; Op.RETURNDATASIZE; Op.COINBASE; Op.TIMESTAMP; Op.NUMBER; Op.DIFFICULTY;
      Op.GASLIMIT; Op.CHAINID; Op.POP; Op.PC; Op.MSIZE; Op.GAS ] )

let verylow =
  ( 3,
    [ Op.ADD; Op.SUB; Op.NOT; Op.LT; Op.GT; Op.SLT; Op.SGT; Op.EQ; Op.ISZERO; Op.AND;
      Op.OR; Op.XOR; Op.BYTE; Op.SHL; Op.SHR; Op.SAR; Op.CALLDATALOAD; Op.MLOAD;
      Op.MSTORE; Op.MSTORE8; Op.CALLDATACOPY; Op.CODECOPY; Op.RETURNDATACOPY ]
    @ range (fun n -> Op.PUSH n) 1 32
    @ range (fun n -> Op.DUP n) 1 16
    @ range (fun n -> Op.SWAP n) 1 16 )

let low = (5, [ Op.MUL; Op.DIV; Op.SDIV; Op.MOD; Op.SMOD; Op.SIGNEXTEND; Op.SELFBALANCE ])
let mid = (8, [ Op.ADDMOD; Op.MULMOD; Op.JUMP ])
let high = (10, [ Op.JUMPI ])
let exp = (10, [ Op.EXP ])
let sha3 = (30, [ Op.SHA3 ])
let ext = (700, [ Op.EXTCODECOPY; Op.EXTCODESIZE; Op.EXTCODEHASH ])
let balance = (700, [ Op.BALANCE ])
let blockhash = (20, [ Op.BLOCKHASH ])
let sload = (800, [ Op.SLOAD ])
let sstore = (5000, [ Op.SSTORE ])
let jumpdest = (1, [ Op.JUMPDEST ])
let create = (32000, [ Op.CREATE; Op.CREATE2 ])
let call = (700, [ Op.CALL; Op.CALLCODE; Op.DELEGATECALL; Op.STATICCALL ])
let selfdestruct = (5000, [ Op.SELFDESTRUCT ])

(* LOG charges scale with the topic count: 375 + 375 per topic. *)
let logs = List.map (fun n -> (375 + (375 * n), [ Op.LOG n ])) [ 0; 1; 2; 3; 4 ]

let classes =
  [ zero; base; verylow; low; mid; high; exp; sha3; ext; balance; blockhash; sload; sstore;
    jumpdest; create; call; selfdestruct ]
  @ logs

(* Assert every op of a class carries the class charge in both the spec's
   schedule and the decode table. *)
let pins (expect, ops) () =
  List.iter
    (fun op ->
      let b = Op.to_byte op in
      Alcotest.(check int)
        (Printf.sprintf "%s schedule" (Op.name op))
        expect (Spec.static_gas ist b);
      Alcotest.(check int)
        (Printf.sprintf "%s decode table (0x%02x)" (Op.name op) b)
        expect (Decode.static_gas_of_byte ist b))
    ops

let log_classes () = List.iter (fun c -> pins c ()) logs

(* Every byte of the table: each assigned byte belongs to exactly one class
   and carries its charge; unassigned bytes charge nothing (the decoded
   engine raises Invalid_opcode before any charge, exactly like the legacy
   engine). *)
let all_bytes () =
  for b = 0 to 255 do
    let expect =
      match Op.of_byte b with
      | Some op -> (
        match List.filter (fun (_, ops) -> List.mem op ops) classes with
        | [ (charge, _) ] -> charge
        | owners ->
          Alcotest.failf "%s (0x%02x) sits in %d classes, expected exactly 1" (Op.name op) b
            (List.length owners))
      | None -> 0
    in
    Alcotest.(check int)
      (Printf.sprintf "byte 0x%02x" b)
      expect
      (Decode.static_gas_of_byte ist b)
  done

(* The same sweep under every fork: the hoisted per-byte charge must mirror
   the fork's resolved table — unassigned and not-yet-introduced bytes both
   charge nothing — and a decoded instruction stream must carry exactly
   these charges at every pc. *)
let all_bytes_per_fork () =
  let code = String.init 256 Char.chr in
  List.iter
    (fun f ->
      let spec = Spec.resolve f in
      let prog = Decode.decode ~hash:(Khash.Keccak.digest code) ~spec code in
      for b = 0 to 255 do
        let expect =
          if Op.of_byte b <> None && Spec.available spec b then Spec.static_gas spec b
          else 0
        in
        Alcotest.(check int)
          (Printf.sprintf "%s table byte 0x%02x" spec.Spec.name b)
          expect
          (Decode.static_gas_of_byte spec b);
        Alcotest.(check int)
          (Printf.sprintf "%s decoded instr at pc %d" spec.Spec.name b)
          expect
          (Decode.meta_static_gas prog.Decode.instrs.(b).Decode.meta)
      done)
    Spec.all_forks

(* The packed [meta] word must carry what [Op] and the spec say about every
   decoded instruction, on every fork: the hot loops read only [meta], so a
   packing-width regression (a charge overflowing its 15-bit field, a
   fused xop losing its high bits) would silently corrupt dispatch rather
   than fail a bounds check.  Two streams: the full byte sweep (every
   opcode class, max static charges, PUSH24 landing on SWAP1 as a fused
   pair 0x1xx) and a fusion-shaped sequence that must decode to exactly
   one PUSH-PUSH-op triple (xop 0x2xx) on every fork, so the highest
   xtable slots are exercised.  Each stream lists
   its fused pcs; every other pc dispatches on its own byte. *)
let meta_packing () =
  let codes =
    [ ("all-bytes", String.init 256 Char.chr, [ (0x77, 0x190) ]);
      (* PUSH1 5; PUSH1 3; ADD; PUSH1 0; MSTORE; DUP1; ADD; STOP *)
      ( "fused",
        "\x60\x05\x60\x03\x01\x60\x00\x52\x80\x01\x00",
        [ (0, 0x201); (2, 0x101); (5, 0x152) ] ) ]
  in
  List.iter
    (fun f ->
      let spec = Spec.resolve f in
      List.iter
        (fun (name, code, fused) ->
          let prog = Decode.decode ~hash:(Khash.Keccak.digest code) ~spec code in
          if name = "fused" then begin
            let count base =
              Array.fold_left
                (fun n (i : Decode.instr) ->
                  if Decode.meta_xop i.Decode.meta land 0xf00 = base then n + 1 else n)
                0 prog.Decode.instrs
            in
            Alcotest.(check int) (spec.Spec.name ^ "/fused: PUSH-PUSH-op triples") 1 (count 0x200)
          end;
          Array.iteri
            (fun pc (i : Decode.instr) ->
              let m = i.Decode.meta in
              let chk what expect got =
                Alcotest.(check int)
                  (Printf.sprintf "%s/%s pc %d: %s" spec.Spec.name name pc what)
                  expect got
              in
              let b = Char.code code.[pc] in
              let live = if Spec.available spec b then Op.of_byte b else None in
              let plain_xop = if Op.of_byte b <> None && live = None then Decode.invalid_xop else b in
              chk "meta_xop" (Option.value ~default:plain_xop (List.assoc_opt pc fused))
                (Decode.meta_xop m);
              (match live with
              | Some op ->
                chk "meta_stack_in" (Op.stack_in op) (Decode.meta_stack_in m);
                chk "meta_max_sp"
                  (Decode.max_stack - (Op.stack_out op - Op.stack_in op))
                  (Decode.meta_max_sp m);
                chk "meta_static_gas" (Spec.static_gas spec b) (Decode.meta_static_gas m);
                chk "meta_steps" 1 (Decode.meta_steps m)
              | None ->
                chk "meta_stack_in" 0 (Decode.meta_stack_in m);
                chk "meta_max_sp" 2047 (Decode.meta_max_sp m);
                chk "meta_static_gas" 0 (Decode.meta_static_gas m);
                chk "meta_steps" 0 (Decode.meta_steps m)))
            prog.Decode.instrs)
        codes)
    Spec.all_forks

(* The columns genuinely differ where the forks say they do: a quick
   cross-fork triangulation so the per-fork sweep can never silently run
   five identical tables. *)
let fork_columns_differ () =
  let g f b = Decode.static_gas_of_byte (Spec.resolve f) b in
  let sload = Op.to_byte Op.SLOAD and bal = Op.to_byte Op.BALANCE in
  Alcotest.(check int) "frontier SLOAD" 50 (g Spec.Frontier sload);
  Alcotest.(check int) "tangerine SLOAD" 200 (g Spec.Tangerine sload);
  Alcotest.(check int) "istanbul SLOAD" 800 (g Spec.Istanbul sload);
  Alcotest.(check int) "berlin SLOAD (warm base)" 100 (g Spec.Berlin sload);
  Alcotest.(check int) "frontier BALANCE" 20 (g Spec.Frontier bal);
  Alcotest.(check int) "istanbul BALANCE" 700 (g Spec.Istanbul bal);
  Alcotest.(check int) "berlin BALANCE (warm base)" 100 (g Spec.Berlin bal);
  Alcotest.(check int) "frontier SHL unavailable" 0 (g Spec.Frontier (Op.to_byte Op.SHL));
  Alcotest.(check bool) "constantinople SHL available" true
    (g Spec.Constantinople (Op.to_byte Op.SHL) > 0)

let suite =
  [ t "zero class" (pins zero);
    t "base class" (pins base);
    t "verylow class (incl. PUSH/DUP/SWAP)" (pins verylow);
    t "low class" (pins low);
    t "mid class" (pins mid);
    t "high class" (pins high);
    t "exp class" (pins exp);
    t "sha3 class" (pins sha3);
    t "ext class" (pins ext);
    t "balance class" (pins balance);
    t "blockhash class" (pins blockhash);
    t "sload class" (pins sload);
    t "sstore class" (pins sstore);
    t "jumpdest class" (pins jumpdest);
    t "log classes" log_classes;
    t "create class" (pins create);
    t "call class" (pins call);
    t "selfdestruct class" (pins selfdestruct);
    t "all 256 bytes" all_bytes;
    t "all 256 bytes x all forks" all_bytes_per_fork;
    t "meta packing matches unpacked scalars x all forks" meta_packing;
    t "fork columns differ where declared" fork_columns_differ ]
