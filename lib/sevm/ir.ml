(* S-EVM: Forerunner's register-based intermediate representation
   (paper §4.3).  A traced transaction execution becomes a straight-line
   sequence of S-EVM instructions in SSA form: every instruction either
   reads a context variable, computes, or (in the deferred write set)
   writes.  Stack and memory traffic from EVM is gone — register promotion
   resolved it at specialization time. *)

open State

type reg = int

type operand = Reg of reg | Const of U256.t

(* A contiguous run of bytes used to rebuild memory contents, call data,
   return data, hash inputs and log payloads. *)
type piece =
  | P_const of string
  | P_reg of reg * int * int
      (** [P_reg (r, off, len)]: bytes [off, off+len) of the 32-byte
          big-endian encoding of register [r]. *)

type compute_op =
  | C_add | C_mul | C_sub | C_div | C_sdiv | C_mod | C_smod | C_addmod | C_mulmod
  | C_exp | C_signextend
  | C_lt | C_gt | C_slt | C_sgt | C_eq | C_iszero
  | C_and | C_or | C_xor | C_not | C_byte | C_shl | C_shr | C_sar

type read_src =
  | R_timestamp
  | R_number
  | R_coinbase
  | R_difficulty
  | R_gaslimit
  | R_blockhash of operand
  | R_balance of operand  (** address (low 160 bits of the operand) *)
  | R_nonce of Address.t
  | R_nonce_of of operand
      (** nonce of a register-held address (template paths: the sender is
          an input register, not a baked constant) *)
  | R_storage of Address.t * U256.t  (** keys are constants after guarding *)
  | R_storage_dyn of Address.t * operand
      (** storage read with a register-held key.  The contract address
          stays concrete (it is part of the template key); the slot varies
          per caller (e.g. keccak(sender . slot)), so the key rides in a
          register.  Only template paths emit this. *)
  | R_extcodesize of operand
  | R_extcodehash of operand

type instr =
  | Compute of reg * compute_op * operand array
  | Keccak of reg * piece list
  | Sha256 of reg * piece list  (** the 0x02 precompile, decomposed *)
  | Pack of reg * piece list  (** assemble a 32-byte word from pieces *)
  | Read of reg * read_src
  | Guard of operand * U256.t  (** constraint: operand must equal the value *)
  | Guard_size of operand * int  (** constraint: byte_size(operand) = n *)
  | Guard_warm of (Address.t * U256.t option) * bool
      (** constraint: the access-list warmth of a location on transaction
          entry — [(a, None)] the account, [(a, Some k)] one storage slot —
          must equal the recorded bool.  Keys are concrete (guarded before
          emission), so the guard has no register operands; it constrains
          replay-time entry state instead of a register value, which is why
          warmth gets its own guard class rather than riding on {!Guard}
          (DESIGN.md §12). *)

type write =
  | W_storage of Address.t * U256.t * operand
  | W_storage_dyn of Address.t * operand * operand
      (** register-held key (template paths), value *)
  | W_balance_set of operand * operand  (** address operand, absolute value *)
  | W_balance_add of operand * operand
  | W_balance_sub of operand * operand
  | W_nonce_set of Address.t * int
  | W_nonce_dyn of operand * operand
      (** register-held address, register-held new nonce (template paths:
          the sender bump becomes nonce_input + 1) *)
  | W_code of Address.t * piece list  (** contract deployment *)
  | W_log of Address.t * operand list * piece list

(* ---- template input registers (lib/apstore) ----

   A template path promotes caller-varying transaction fields from baked-in
   constants to {e input registers}: registers 0..k-1 of the path are
   pre-seeded from the transaction being served, before any instruction
   runs.  [input_src] says where each one comes from.  Gas limit and the
   calldata intrinsic class are lifted too ([In_gas_limit],
   [In_intrinsic_gas], [In_gas_used]): the execution envelope is
   guarded in the preamble and the served receipt's [gas_used] is
   recomputed from the class-invariant execution gas, so the template key
   no longer has to pin the exact gas limit or calldata byte mix — except
   for code that executes GAS, which lib/apstore detects statically
   (lib/bca) and keeps fully pinned. *)

type input_src =
  | In_sender  (** [tx.sender] as a u256 word *)
  | In_value  (** [tx.value] *)
  | In_nonce  (** [tx.nonce] *)
  | In_gas_price  (** [tx.gas_price] *)
  | In_gas_limit  (** [tx.gas_limit] *)
  | In_intrinsic_gas
      (** [Spec.intrinsic_gas] of the served transaction's calldata — a
          message-call charge, so templates (never creations) only *)
  | In_gas_used of { g_exec : int; g_refund : int }
      (** the served receipt's [gas_used], recomputed from the traced
          path's calldata-class-invariant quantities: [g_exec] is the
          post-intrinsic execution charge, [g_refund] the raw (uncapped)
          refund counter.  Value = pre - min(g_refund, pre / divisor)
          where pre = intrinsic' + g_exec under the serving spec *)
  | In_calldata_word of int
      (** the 32-byte big-endian word of [tx.data] at byte offset [4+32k]
          (ABI argument [k]), zero-padded past the end *)

(* The 32-byte big-endian word of [data] at byte offset [off], zero-padded
   past the end. *)
let calldata_word data off =
  let avail = String.length data - off in
  if avail >= 32 then U256.of_bytes_be ~off ~len:32 data
  else if avail <= 0 then U256.zero
  else U256.shift_left (U256.of_bytes_be ~off ~len:avail data) (8 * (32 - avail))

(* Seed registers 0..k-1 of [regs] with [tx]'s values of [inputs].  The one
   binding behind the builder's traced register values, the S-EVM replay
   and the AP executor, so build-time and serve-time values cannot drift.
   The intrinsic charge is computed once per call; empty [inputs] (every
   per-transaction path) costs nothing. *)
let bind_inputs ~(spec : Spec.t) (tx : Evm.Env.tx) inputs regs =
  let n = Array.length inputs in
  if n > 0 then begin
    let intrinsic = Spec.intrinsic_gas spec ~is_create:false tx.data in
    for i = 0 to n - 1 do
      regs.(i) <-
        (match inputs.(i) with
        | In_sender -> Address.to_u256 tx.sender
        | In_value -> tx.value
        | In_nonce -> U256.of_int tx.nonce
        | In_gas_price -> tx.gas_price
        | In_gas_limit -> U256.of_int tx.gas_limit
        | In_intrinsic_gas -> U256.of_int intrinsic
        | In_gas_used { g_exec; g_refund } ->
          let pre = intrinsic + g_exec in
          U256.of_int (pre - min g_refund (pre / spec.Spec.refund_cap_divisor))
        | In_calldata_word k -> calldata_word tx.data (4 + (32 * k)))
    done
  end

let pp_input ppf = function
  | In_sender -> Fmt.string ppf "sender"
  | In_value -> Fmt.string ppf "value"
  | In_nonce -> Fmt.string ppf "nonce"
  | In_gas_price -> Fmt.string ppf "gas_price"
  | In_gas_limit -> Fmt.string ppf "gas_limit"
  | In_intrinsic_gas -> Fmt.string ppf "intrinsic_gas"
  | In_gas_used { g_exec; g_refund } ->
    Fmt.pf ppf "gas_used[exec=%d,refund=%d]" g_exec g_refund
  | In_calldata_word k -> Fmt.pf ppf "calldata[%d]" k

(* Per-path synthesis statistics, feeding Fig. 15 / §5.5. *)
type stats = {
  evm_trace_len : int;  (** instructions in the recorded EVM trace *)
  decomposed_added : int;  (** extra S-EVM instrs from decomposition *)
  stack_eliminated : int;  (** PUSH/DUP/SWAP/POP *)
  mem_eliminated : int;  (** MLOAD/MSTORE/MSTORE8/copies promoted away *)
  control_eliminated : int;  (** JUMP/JUMPI/JUMPDEST/PC *)
  state_eliminated : int;  (** promoted repeat SLOAD/env reads *)
  const_folded : int;
  cse_removed : int;
  dead_removed : int;
  guards_added : int;
  constraint_len : int;  (** instrs in the constraint (pre-fast-path) section *)
  fastpath_len : int;
}

let empty_stats =
  {
    evm_trace_len = 0;
    decomposed_added = 0;
    stack_eliminated = 0;
    mem_eliminated = 0;
    control_eliminated = 0;
    state_eliminated = 0;
    const_folded = 0;
    cse_removed = 0;
    dead_removed = 0;
    guards_added = 0;
    constraint_len = 0;
    fastpath_len = 0;
  }

let add_stats a b =
  {
    evm_trace_len = a.evm_trace_len + b.evm_trace_len;
    decomposed_added = a.decomposed_added + b.decomposed_added;
    stack_eliminated = a.stack_eliminated + b.stack_eliminated;
    mem_eliminated = a.mem_eliminated + b.mem_eliminated;
    control_eliminated = a.control_eliminated + b.control_eliminated;
    state_eliminated = a.state_eliminated + b.state_eliminated;
    const_folded = a.const_folded + b.const_folded;
    cse_removed = a.cse_removed + b.cse_removed;
    dead_removed = a.dead_removed + b.dead_removed;
    guards_added = a.guards_added + b.guards_added;
    constraint_len = a.constraint_len + b.constraint_len;
    fastpath_len = a.fastpath_len + b.fastpath_len;
  }

(* A linear accelerated path: one constraint set plus one fast path,
   synthesized from one pre-execution (before AP merging). *)
type path = {
  instrs : instr array;  (** constraint section then fast-path section *)
  first_fast : int;  (** index of the first fast-path instruction *)
  writes : write list;
  status : Evm.Processor.status;
  gas_used : int;  (** the traced receipt's charge; exact for replays of
                       the same transaction *)
  gas_used_src : operand option;
      (** template paths: the [In_gas_used] register whose serve-time
          binding is the served receipt's [gas_used] (the baked constant
          above is only the traced value).  [None] for ordinary paths. *)
  gas_refund : int;  (** raw (uncapped) refund counter of the traced run,
                         surfaced into the receipt *)
  output : piece list;
  reg_count : int;
  reg_values : U256.t array;  (** value each register took during tracing *)
  fork : int;  (** spec id the path was built under; replay under any other
                   fork is a guard violation before the first instruction *)
  inputs : input_src array;
      (** template input registers: register [i] is pre-seeded with
          [tx]'s value of [inputs.(i)] ({!bind_inputs}) before the path
          runs.  Empty for ordinary per-transaction paths. *)
  stats : stats;
}

(* ---- evaluation (shared by constant folding and AP execution) ---- *)

let bool_word b = if b then U256.one else U256.zero

(* One compute over its operand values, in EVM stack order: [a] is the
   first operand, [c] is read only by the ternary ops and [b] not by the
   unary ones, so callers pass [U256.zero] for operands an op lacks. *)
let eval_compute op a b c =
  match op with
  | C_add -> U256.add a b
  | C_mul -> U256.mul a b
  | C_sub -> U256.sub a b
  | C_div -> U256.div a b
  | C_sdiv -> U256.sdiv a b
  | C_mod -> U256.rem a b
  | C_smod -> U256.srem a b
  | C_addmod -> U256.addmod a b c
  | C_mulmod -> U256.mulmod a b c
  | C_exp -> U256.exp a b
  | C_signextend -> U256.signextend a b
  | C_lt -> bool_word (U256.lt a b)
  | C_gt -> bool_word (U256.gt a b)
  | C_slt -> bool_word (U256.slt a b)
  | C_sgt -> bool_word (U256.sgt a b)
  | C_eq -> bool_word (U256.equal a b)
  | C_iszero -> bool_word (U256.is_zero a)
  | C_and -> U256.logand a b
  | C_or -> U256.logor a b
  | C_xor -> U256.logxor a b
  | C_not -> U256.lognot a
  | C_byte -> U256.byte a b
  | C_shl -> (
    match U256.to_int_opt a with
    | Some k when k < 256 -> U256.shift_left b k
    | _ -> U256.zero)
  | C_shr -> (
    match U256.to_int_opt a with
    | Some k when k < 256 -> U256.shift_right b k
    | _ -> U256.zero)
  | C_sar -> (
    match U256.to_int_opt a with
    | Some k when k < 256 -> U256.shift_right_arith b k
    | _ -> if U256.testbit b 255 then U256.max_value else U256.zero)

let compute_op_of_evm : Evm.Op.t -> compute_op option = function
  | ADD -> Some C_add | MUL -> Some C_mul | SUB -> Some C_sub | DIV -> Some C_div
  | SDIV -> Some C_sdiv | MOD -> Some C_mod | SMOD -> Some C_smod
  | ADDMOD -> Some C_addmod | MULMOD -> Some C_mulmod | EXP -> Some C_exp
  | SIGNEXTEND -> Some C_signextend | LT -> Some C_lt | GT -> Some C_gt
  | SLT -> Some C_slt | SGT -> Some C_sgt | EQ -> Some C_eq | ISZERO -> Some C_iszero
  | AND -> Some C_and | OR -> Some C_or | XOR -> Some C_xor | NOT -> Some C_not
  | BYTE -> Some C_byte | SHL -> Some C_shl | SHR -> Some C_shr | SAR -> Some C_sar
  | _ -> None

(* EVM stack order note: for SHL/SHR/SAR the EVM pops shift then value, and
   eval_compute above follows that same order ([a] = shift). *)

(* Operand [i] of [args] over the register file [regs]; [U256.zero] past
   the end, so [eval_compute op (arg_value regs args 0) (arg_value regs
   args 1) (arg_value regs args 2)] evaluates a [Compute] of any arity. *)
let arg_value regs (args : operand array) i =
  if i >= Array.length args then U256.zero
  else match Array.unsafe_get args i with Reg r -> regs.(r) | Const v -> v

(* A distinct small int per operation, for hashing. *)
let compute_code = function
  | C_add -> 0 | C_mul -> 1 | C_sub -> 2 | C_div -> 3 | C_sdiv -> 4 | C_mod -> 5 | C_smod -> 6
  | C_addmod -> 7 | C_mulmod -> 8 | C_exp -> 9 | C_signextend -> 10 | C_lt -> 11 | C_gt -> 12
  | C_slt -> 13 | C_sgt -> 14 | C_eq -> 15 | C_iszero -> 16 | C_and -> 17 | C_or -> 18
  | C_xor -> 19 | C_not -> 20 | C_byte -> 21 | C_shl -> 22 | C_shr -> 23 | C_sar -> 24

let compute_name = function
  | C_add -> "ADD" | C_mul -> "MUL" | C_sub -> "SUB" | C_div -> "DIV" | C_sdiv -> "SDIV"
  | C_mod -> "MOD" | C_smod -> "SMOD" | C_addmod -> "ADDMOD" | C_mulmod -> "MULMOD"
  | C_exp -> "EXP" | C_signextend -> "SIGNEXTEND" | C_lt -> "LT" | C_gt -> "GT"
  | C_slt -> "SLT" | C_sgt -> "SGT" | C_eq -> "EQ" | C_iszero -> "ISZERO"
  | C_and -> "AND" | C_or -> "OR" | C_xor -> "XOR" | C_not -> "NOT" | C_byte -> "BYTE"
  | C_shl -> "SHL" | C_shr -> "SHR" | C_sar -> "SAR"

(* ---- pretty-printing ---- *)

let pp_operand ppf = function
  | Reg r -> Fmt.pf ppf "v%d" r
  | Const v -> U256.pp ppf v

let pp_piece ppf = function
  | P_const s -> Fmt.pf ppf "%dB const" (String.length s)
  | P_reg (r, off, len) -> Fmt.pf ppf "v%d[%d..%d]" r off (off + len)

let pp_read ppf = function
  | R_timestamp -> Fmt.string ppf "TIMESTAMP"
  | R_number -> Fmt.string ppf "NUMBER"
  | R_coinbase -> Fmt.string ppf "COINBASE"
  | R_difficulty -> Fmt.string ppf "DIFFICULTY"
  | R_gaslimit -> Fmt.string ppf "GASLIMIT"
  | R_blockhash o -> Fmt.pf ppf "BLOCKHASH(%a)" pp_operand o
  | R_balance o -> Fmt.pf ppf "BALANCE(%a)" pp_operand o
  | R_nonce a -> Fmt.pf ppf "NONCE(%a)" Address.pp a
  | R_nonce_of o -> Fmt.pf ppf "NONCE(%a)" pp_operand o
  | R_storage (a, k) -> Fmt.pf ppf "SLOAD(%a,%a)" Address.pp a U256.pp k
  | R_storage_dyn (a, k) -> Fmt.pf ppf "SLOAD(%a,%a)" Address.pp a pp_operand k
  | R_extcodesize o -> Fmt.pf ppf "EXTCODESIZE(%a)" pp_operand o
  | R_extcodehash o -> Fmt.pf ppf "EXTCODEHASH(%a)" pp_operand o

let pp_instr ppf = function
  | Compute (r, op, args) ->
    Fmt.pf ppf "v%d = %s(%a)" r (compute_name op) (Fmt.array ~sep:Fmt.comma pp_operand) args
  | Keccak (r, ps) -> Fmt.pf ppf "v%d = KECCAK(%a)" r (Fmt.list ~sep:Fmt.comma pp_piece) ps
  | Sha256 (r, ps) -> Fmt.pf ppf "v%d = SHA256(%a)" r (Fmt.list ~sep:Fmt.comma pp_piece) ps
  | Pack (r, ps) -> Fmt.pf ppf "v%d = PACK(%a)" r (Fmt.list ~sep:Fmt.comma pp_piece) ps
  | Read (r, src) -> Fmt.pf ppf "v%d = %a" r pp_read src
  | Guard (o, v) -> Fmt.pf ppf "GUARD(%a == %a)" pp_operand o U256.pp v
  | Guard_size (o, n) -> Fmt.pf ppf "GUARD(bytesize(%a) == %d)" pp_operand o n
  | Guard_warm ((a, ko), w) -> (
    match ko with
    | None -> Fmt.pf ppf "GUARD(warm(%a) == %b)" Address.pp a w
    | Some k -> Fmt.pf ppf "GUARD(warm(%a,%a) == %b)" Address.pp a U256.pp k w)

let pp_write ppf = function
  | W_storage (a, k, v) -> Fmt.pf ppf "SSTORE(%a, %a, %a)" Address.pp a U256.pp k pp_operand v
  | W_storage_dyn (a, k, v) ->
    Fmt.pf ppf "SSTORE(%a, %a, %a)" Address.pp a pp_operand k pp_operand v
  | W_balance_set (a, v) -> Fmt.pf ppf "BAL[%a] := %a" pp_operand a pp_operand v
  | W_balance_add (a, v) -> Fmt.pf ppf "BAL[%a] += %a" pp_operand a pp_operand v
  | W_balance_sub (a, v) -> Fmt.pf ppf "BAL[%a] -= %a" pp_operand a pp_operand v
  | W_nonce_set (a, n) -> Fmt.pf ppf "NONCE[%a] := %d" Address.pp a n
  | W_nonce_dyn (a, n) -> Fmt.pf ppf "NONCE[%a] := %a" pp_operand a pp_operand n
  | W_code (a, ps) -> Fmt.pf ppf "CODE[%a] := %d pieces" Address.pp a (List.length ps)
  | W_log (a, topics, _) ->
    Fmt.pf ppf "LOG(%a, %a)" Address.pp a (Fmt.list ~sep:Fmt.comma pp_operand) topics

let pp_path ppf p =
  Fmt.pf ppf "path: %d instrs (%d constraint + %d fast), %d writes, gas=%d@."
    (Array.length p.instrs) p.first_fast
    (Array.length p.instrs - p.first_fast)
    (List.length p.writes) p.gas_used;
  Array.iteri
    (fun i ins ->
      if i = p.first_fast then Fmt.pf ppf "--- fast path ---@.";
      Fmt.pf ppf "  %a@." pp_instr ins)
    p.instrs;
  List.iter (fun w -> Fmt.pf ppf "  %a@." pp_write w) p.writes

(* ---- operand helpers ---- *)

let operand_equal a b =
  match (a, b) with
  | Reg r, Reg r' -> r = r'
  | Const v, Const v' -> U256.equal v v'
  | Reg _, Const _ | Const _, Reg _ -> false

let operand_regs = function Reg r -> [ r ] | Const _ -> []
let piece_regs = function P_reg (r, _, _) -> [ r ] | P_const _ -> []

(* The registers an instruction or write reads, in operand order, without
   building a list: the scheduler and the verifier walk these per
   instruction.  The list forms below are derived from them. *)
let iter_operand f = function Reg r -> f r | Const _ -> ()
let iter_pieces f = List.iter (function P_reg (r, _, _) -> f r | P_const _ -> ())

let iter_uses f = function
  | Compute (_, _, args) -> Array.iter (iter_operand f) args
  | Keccak (_, ps) | Sha256 (_, ps) | Pack (_, ps) -> iter_pieces f ps
  | Read (_, src) -> (
    match src with
    | R_blockhash o | R_balance o | R_nonce_of o | R_storage_dyn (_, o) | R_extcodesize o
    | R_extcodehash o ->
      iter_operand f o
    | R_timestamp | R_number | R_coinbase | R_difficulty | R_gaslimit | R_nonce _
    | R_storage _ -> ())
  | Guard (o, _) | Guard_size (o, _) -> iter_operand f o
  | Guard_warm _ -> ()

let iter_write_uses f = function
  | W_storage (_, _, v) -> iter_operand f v
  | W_storage_dyn (_, a, v)
  | W_balance_set (a, v)
  | W_balance_add (a, v)
  | W_balance_sub (a, v)
  | W_nonce_dyn (a, v) ->
    iter_operand f a;
    iter_operand f v
  | W_nonce_set _ -> ()
  | W_code (_, ps) -> iter_pieces f ps
  | W_log (_, topics, ps) ->
    List.iter (iter_operand f) topics;
    iter_pieces f ps

let list_of_iter iter x =
  let l = ref [] in
  iter (fun r -> l := r :: !l) x;
  List.rev !l

let instr_uses = list_of_iter iter_uses
let write_uses = list_of_iter iter_write_uses

(* The register an instruction defines, or -1. *)
let def_reg = function
  | Compute (r, _, _) | Keccak (r, _) | Sha256 (r, _) | Pack (r, _) | Read (r, _) -> r
  | Guard _ | Guard_size _ | Guard_warm _ -> -1

let instr_def ins = match def_reg ins with -1 -> None | r -> Some r

let pieces_len pieces =
  List.fold_left
    (fun acc p -> acc + match p with P_const s -> String.length s | P_reg (_, _, l) -> l)
    0 pieces

let rec blit_pieces regs buf pos = function
  | [] -> ()
  | P_const s :: rest ->
    Bytes.blit_string s 0 buf pos (String.length s);
    blit_pieces regs buf (pos + String.length s) rest
  | P_reg (r, off, len) :: rest ->
    U256.blit_be regs.(r) off buf pos len;
    blit_pieces regs buf (pos + len) rest

(* Materialize pieces into bytes given a register file: one buffer of the
   exact size, register words written in place. *)
let bytes_of_pieces regs pieces =
  match pieces with
  | [] -> ""
  | _ :: _ ->
    let buf = Bytes.create (pieces_len pieces) in
    blit_pieces regs buf 0 pieces;
    Bytes.unsafe_to_string buf
