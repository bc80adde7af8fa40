(* Differential testing: random straight-line arithmetic programs executed
   by the EVM interpreter must agree with a direct evaluation through
   {!Sevm.Ir.eval_compute} — the very function accelerated programs use to
   replay computation.  Any divergence between the two engines would break
   AP soundness silently, so we fuzz it. *)

open State
open Evm

let alice = Address.of_int 0xA11CE
let target = Address.of_int 0x7A67

let benv : Env.block_env =
  {
    coinbase = Address.of_int 0xC01;
    timestamp = 1_600_000_000L;
    number = 10L;
    difficulty = U256.one;
    gas_limit = 30_000_000;
    chain_id = 1;
    block_hash = (fun _ -> U256.zero);
  }

(* The opcode pool: (EVM opcode, S-EVM compute op, arity). *)
let pool =
  [ (Op.ADD, Sevm.Ir.C_add, 2); (Op.MUL, Sevm.Ir.C_mul, 2); (Op.SUB, Sevm.Ir.C_sub, 2);
    (Op.DIV, Sevm.Ir.C_div, 2); (Op.SDIV, Sevm.Ir.C_sdiv, 2); (Op.MOD, Sevm.Ir.C_mod, 2);
    (Op.SMOD, Sevm.Ir.C_smod, 2); (Op.ADDMOD, Sevm.Ir.C_addmod, 3);
    (Op.MULMOD, Sevm.Ir.C_mulmod, 3); (Op.SIGNEXTEND, Sevm.Ir.C_signextend, 2); (Op.EXP, Sevm.Ir.C_exp, 2);
    (Op.LT, Sevm.Ir.C_lt, 2); (Op.GT, Sevm.Ir.C_gt, 2); (Op.SLT, Sevm.Ir.C_slt, 2);
    (Op.SGT, Sevm.Ir.C_sgt, 2); (Op.EQ, Sevm.Ir.C_eq, 2); (Op.ISZERO, Sevm.Ir.C_iszero, 1);
    (Op.AND, Sevm.Ir.C_and, 2); (Op.OR, Sevm.Ir.C_or, 2); (Op.XOR, Sevm.Ir.C_xor, 2);
    (Op.NOT, Sevm.Ir.C_not, 1); (Op.BYTE, Sevm.Ir.C_byte, 2); (Op.SHL, Sevm.Ir.C_shl, 2);
    (Op.SHR, Sevm.Ir.C_shr, 2); (Op.SAR, Sevm.Ir.C_sar, 2) ]

type step = S_push of U256.t | S_op of int (* index into pool *)

let arb_program =
  let open QCheck.Gen in
  let arb_word =
    oneof
      [ map U256.of_int (int_bound 1000);
        map (fun (a, b, c, d) -> U256.of_limbs a b c d) (quad int64 int64 int64 int64);
        return U256.zero; return U256.one; return U256.max_value;
        return (U256.shift_left U256.one 255); map (fun n -> U256.of_int (n mod 320)) small_nat ]
  in
  let arb_step =
    frequency
      [ (2, map (fun v -> S_push v) arb_word); (3, map (fun i -> S_op i) (int_bound (List.length pool - 1))) ]
  in
  QCheck.make
    ~print:(fun steps ->
      String.concat ";"
        (List.map
           (function
             | S_push v -> "push " ^ U256.to_hex v
             | S_op i ->
               let op, _, _ = List.nth pool i in
               Op.name op)
           steps))
    (list_size (int_bound 40) arb_step)

(* Build bytecode and a model result simultaneously, skipping ops that would
   underflow the current stack. *)
let compile_and_model steps =
  let items = ref [] in
  let model = ref [] in
  List.iter
    (fun s ->
      match s with
      | S_push v ->
        items := Asm.push v :: !items;
        model := v :: !model
      | S_op i ->
        let op, cop, arity = List.nth pool i in
        if List.length !model >= arity then begin
          items := Asm.op op :: !items;
          let arg j = if j < arity then List.nth !model j else U256.zero in
          let rest = List.filteri (fun j _ -> j >= arity) !model in
          model := Sevm.Ir.eval_compute cop (arg 0) (arg 1) (arg 2) :: rest
        end)
    steps;
  (* guarantee a result word *)
  (match !model with
  | [] ->
    items := Asm.push_int 42 :: !items;
    model := [ U256.of_int 42 ]
  | _ :: _ -> ());
  (List.rev !items @ Asm.return_word, List.hd !model)

let run_evm items =
  let bk = Statedb.Backend.create () in
  let st = Statedb.create bk ~root:Statedb.empty_root in
  Statedb.set_balance st alice (U256.of_string "1000000000000000000000");
  Statedb.set_code st target (Asm.assemble items);
  let tx : Env.tx =
    { sender = alice; to_ = Some target; nonce = 0; value = U256.zero; data = "";
      gas_limit = 20_000_000; gas_price = U256.one }
  in
  let r = Processor.execute_tx st benv tx in
  match r.status with
  | Processor.Success -> Some (Abi.decode_word r.output 0)
  | Processor.Reverted | Processor.Invalid _ -> None

(* ---- stateful opcode pool: memory, storage, SHA3, calldata ----

   Beyond pure arithmetic the model is the EVM itself: random straight-line
   programs over MLOAD/MSTORE/MSTORE8, SLOAD/SSTORE, SHA3 and
   CALLDATALOAD/CALLDATACOPY are executed once by the interpreter and once
   through the full S-EVM pipeline (trace -> Builder.build -> Replay.run);
   receipts and committed state roots must agree. *)

type sstep =
  | T_push of U256.t
  | T_op of int  (* index into [pool] *)
  | T_mstore of int  (* pops a value; word offset *)
  | T_mstore8 of int  (* pops a value; byte offset *)
  | T_mload of int  (* pushes mem word *)
  | T_sstore of int  (* pops a value; storage slot *)
  | T_sload of int  (* pushes storage slot *)
  | T_sha3 of int * int  (* pushes keccak(mem[off..off+len)) *)
  | T_calldataload of int  (* pushes a calldata word *)
  | T_calldatacopy of int * int * int  (* dst, src, len; stack-neutral *)

let sstep_name = function
  | T_push v -> "push " ^ U256.to_hex v
  | T_op i ->
    let op, _, _ = List.nth pool i in
    Op.name op
  | T_mstore o -> Printf.sprintf "mstore@%d" o
  | T_mstore8 o -> Printf.sprintf "mstore8@%d" o
  | T_mload o -> Printf.sprintf "mload@%d" o
  | T_sstore s -> Printf.sprintf "sstore@%d" s
  | T_sload s -> Printf.sprintf "sload@%d" s
  | T_sha3 (o, l) -> Printf.sprintf "sha3@%d+%d" o l
  | T_calldataload o -> Printf.sprintf "cdload@%d" o
  | T_calldatacopy (d, s, l) -> Printf.sprintf "cdcopy@%d<-%d+%d" d s l

let arb_state_program =
  let open QCheck.Gen in
  let arb_word =
    oneof
      [ map U256.of_int (int_bound 1000); return U256.zero; return U256.max_value;
        map (fun (a, b) -> U256.of_limbs 0L 0L a b) (pair int64 int64) ]
  in
  let arb_sstep =
    frequency
      [ (3, map (fun v -> T_push v) arb_word);
        (3, map (fun i -> T_op i) (int_bound (List.length pool - 1)));
        (2, map (fun o -> T_mstore (32 * (o mod 8))) small_nat);
        (1, map (fun o -> T_mstore8 (o mod 200)) small_nat);
        (2, map (fun o -> T_mload (32 * (o mod 8))) small_nat);
        (2, map (fun s -> T_sstore (s mod 8)) small_nat);
        (2, map (fun s -> T_sload (s mod 8)) small_nat);
        (1, map (fun (o, l) -> T_sha3 (o mod 64, 1 + (l mod 64))) (pair small_nat small_nat));
        (2, map (fun o -> T_calldataload (o mod 80)) small_nat);
        (1,
         map
           (fun (d, (s, l)) -> T_calldatacopy (d mod 128, s mod 80, l mod 64))
           (pair small_nat (pair small_nat small_nat))) ]
  in
  QCheck.make
    ~print:(fun steps -> String.concat ";" (List.map sstep_name steps))
    (list_size (int_bound 40) arb_sstep)

(* Compile, tracking only stack depth (the EVM itself is the model); ops
   that would underflow are skipped. *)
let compile_state_program steps =
  let items = ref [] in
  let depth = ref 0 in
  let emit is = items := List.rev_append is !items in
  List.iter
    (fun s ->
      match s with
      | T_push v ->
        emit [ Asm.push v ];
        incr depth
      | T_op i ->
        let op, _, arity = List.nth pool i in
        if !depth >= arity then begin
          emit [ Asm.op op ];
          depth := !depth - arity + 1
        end
      | T_mstore off ->
        if !depth >= 1 then begin
          emit [ Asm.push_int off; Asm.op Op.MSTORE ];
          decr depth
        end
      | T_mstore8 off ->
        if !depth >= 1 then begin
          emit [ Asm.push_int off; Asm.op Op.MSTORE8 ];
          decr depth
        end
      | T_mload off ->
        emit [ Asm.push_int off; Asm.op Op.MLOAD ];
        incr depth
      | T_sstore slot ->
        if !depth >= 1 then begin
          emit [ Asm.push_int slot; Asm.op Op.SSTORE ];
          decr depth
        end
      | T_sload slot ->
        emit [ Asm.push_int slot; Asm.op Op.SLOAD ];
        incr depth
      | T_sha3 (off, len) ->
        emit [ Asm.push_int len; Asm.push_int off; Asm.op Op.SHA3 ];
        incr depth
      | T_calldataload off ->
        emit [ Asm.push_int off; Asm.op Op.CALLDATALOAD ];
        incr depth
      | T_calldatacopy (dst, src, len) ->
        emit [ Asm.push_int len; Asm.push_int src; Asm.push_int dst; Asm.op Op.CALLDATACOPY ])
    steps;
  if !depth = 0 then emit [ Asm.push_int 42 ];
  List.rev_append !items Asm.return_word

let calldata = String.init 68 (fun i -> Char.chr ((i * 37) mod 256))

(* EVM execution and S-EVM build+replay from the same committed pre-state;
   receipts and post-state roots must agree. *)
let evm_vs_replay items =
  let bk = Statedb.Backend.create () in
  let st0 = Statedb.create bk ~root:Statedb.empty_root in
  Statedb.set_balance st0 alice (U256.of_string "1000000000000000000000");
  Statedb.set_code st0 target (Asm.assemble items);
  for slot = 0 to 7 do
    Statedb.set_storage st0 target (U256.of_int slot) (U256.of_int ((slot * 1000) + 7))
  done;
  let root0 = Statedb.commit st0 in
  let tx : Env.tx =
    { sender = alice; to_ = Some target; nonce = 0; value = U256.zero; data = calldata;
      gas_limit = 20_000_000; gas_price = U256.one }
  in
  let st1 = Statedb.create bk ~root:root0 in
  let r1 = Processor.execute_tx st1 benv tx in
  let root1 = Statedb.commit st1 in
  let st2 = Statedb.create bk ~root:root0 in
  let snap = Statedb.snapshot st2 in
  let sink, get = Trace.collector () in
  let traced = Processor.execute_tx ~trace:sink st2 benv tx in
  Statedb.revert st2 snap;
  match Sevm.Builder.build tx benv (get ()) traced st2 with
  | Error m -> Alcotest.failf "straight-line program failed to build: %s" m
  | Ok path -> (
    match Sevm.Replay.run path st2 benv tx with
    | Sevm.Replay.Violated v ->
      Alcotest.failf "spurious guard violation at %d: %s" v.index v.detail
    | Sevm.Replay.Replayed r2 ->
      let root2 = Statedb.commit st2 in
      Processor.status_equal r1.status r2.status
      && r1.gas_used = r2.gas_used
      && String.equal r1.output r2.output
      && String.equal root1 root2)

let suite =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:400 ~name:"EVM agrees with S-EVM evaluation" arb_program
         (fun steps ->
           let items, expected = compile_and_model steps in
           match run_evm items with
           | Some actual -> U256.equal actual expected
           | None -> false (* straight-line arithmetic must not fail *)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"memory/storage/SHA3/calldata ops agree with S-EVM build+replay"
         arb_state_program
         (fun steps -> evm_vs_replay (compile_state_program steps)))
  ]
