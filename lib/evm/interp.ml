(* The EVM interpreter: a faithful stack machine over {!Statedb}, with gas
   accounting, nested message calls, and optional instruction tracing.

   Design notes:
   - Each message call runs in a [frame]; a frame failure (OOG, bad jump,
     static violation, ...) consumes all gas forwarded to it and reverts the
     state journal to the call-entry snapshot.
   - REVERT also rolls the journal back but returns the unused gas.
   - SSTORE pricing is flat (see DESIGN.md §6) so gas along a fixed
     control/data path is constant — the invariant Forerunner's accelerated
     programs rely on.

   Two engines execute frames (DESIGN.md §11):
   - [Decoded] (the default): drives a pre-decoded instruction stream
     ({!Decode.program}, cached per code hash) through a 256-entry table of
     handler closures — no per-step opcode decoding, PUSH immediates
     inlined, static gas hoisted, stack validation collapsed to two
     precomputed comparisons.
   - [Legacy]: the original byte-at-a-time [match] dispatch, kept compiled
     as the differential reference (test/test_decode.ml and the fuzz
     oracle pin the two engines byte-for-byte). *)

open State

type fail_reason =
  | Out_of_gas
  | Stack_underflow
  | Stack_overflow
  | Invalid_jump of int
  | Invalid_opcode of int
  | Static_violation
  | Return_data_oob
  | Code_too_large


exception Fail of fail_reason

type status = Returned of string | Reverted of string | Failed of fail_reason

(* Raised by terminator opcodes to end the current frame. *)
exception Frame_done of status

type engine = Decoded | Legacy

type ctx = {
  st : Statedb.t;
  benv : Env.block_env;
  origin : Address.t;
  gas_price : U256.t;
  engine : engine;
  spec : Spec.t;  (* the hardfork rule set (DESIGN.md §12) *)
  trace : Trace.sink option;
  mutable logs : Env.log list; (* newest first *)
  mutable logs_len : int;
  mutable refund : int;  (* SSTORE-clear refund counter, journaled with logs *)
  warm_accounts : unit Address.Tbl.t;  (* EIP-2929 access sets; *)
  warm_slots : unit Slot.Tbl.t;  (* per-transaction *)
  mutable steps_executed : int;
}

let make_ctx ?engine ?spec ?trace st benv ~origin ~gas_price =
  {
    st;
    benv;
    origin;
    gas_price;
    engine = Option.value engine ~default:Decoded;
    spec = (match spec with Some s -> s | None -> !Spec.current);
    trace;
    logs = [];
    logs_len = 0;
    refund = 0;
    warm_accounts = Address.Tbl.create 16;
    warm_slots = Slot.Tbl.create 16;
    steps_executed = 0;
  }

(* Seed the per-transaction access sets: [(a, None)] warms the account,
   [(a, Some k)] warms one storage slot.  The processor warms the sender
   and target, plus the caller-supplied prewarm list (EIP-2930-style
   execution hint — no intrinsic charge). *)
let warm_entry ctx (a, ko) =
  match ko with
  | None -> Address.Tbl.replace ctx.warm_accounts a ()
  | Some k -> Slot.Tbl.replace ctx.warm_slots (a, k) ()

type frame = {
  ctx_address : Address.t; (* storage context; ADDRESS *)
  code_address : Address.t;
  prog : Decode.program;  (* decoded code + jumpdest bitmap, shared per hash *)
  caller : Address.t;
  value : U256.t;
  data : string;
  is_static : bool;
  depth : int;
  mem : Memory.t;
  stack : U256.t array;
  mutable sp : int;
  mutable gas : int;
  mutable pc : int;
  mutable returndata : string;
}

let max_stack = Decode.max_stack
let max_depth = 1024
let max_code_size = 24576

(* Decoded program for the code stored at [addr]: the statedb keeps
   keccak256(code) per account, so the cache lookup pays no hashing.
   Keyed by hash × the ctx's spec — each fork has its own artifact. *)
let prog_of_account ctx addr code =
  Decode.get ~hash:(Statedb.get_code_hash ctx.st addr) ~spec:ctx.spec code

(* ---- stack helpers ---- *)

(* An operand stack holds [max_stack] words, too large for the minor heap:
   a fresh one per frame would put 8 KB of short-lived garbage straight on
   the major heap at every call.  Each domain keeps the stacks of finished
   frames for later frames to reuse (see [run_frame_release]).  A frame
   reads only below its [sp], which starts at 0, so whatever an earlier
   frame left in a reused stack is never observed. *)
let stack_pool : U256.t array list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let new_stack () =
  let pool = Domain.DLS.get stack_pool in
  match !pool with
  | s :: rest ->
    pool := rest;
    s
  | [] -> Array.make max_stack U256.zero

let push f v =
  if f.sp >= max_stack then raise (Fail Stack_overflow);
  f.stack.(f.sp) <- v;
  f.sp <- f.sp + 1

let pop f =
  if f.sp = 0 then raise (Fail Stack_underflow);
  f.sp <- f.sp - 1;
  f.stack.(f.sp)

let require f n = if f.sp < n then raise (Fail Stack_underflow)
let charge f n = if f.gas < n then raise (Fail Out_of_gas) else f.gas <- f.gas - n

let charge_mem f off len =
  if len > 0 then begin
    if off < 0 || len < 0 || off + len < 0 then raise (Fail Out_of_gas);
    (* fast path: within the word-aligned high-water mark, expansion cost
       is zero and [ensure] is a no-op — skip both calls *)
    if off + len > Memory.size f.mem then begin
      charge f (Memory.expansion_cost f.mem off len);
      Memory.ensure f.mem off len
    end
  end

(* Offsets/lengths reaching memory must fit in an int comfortably; anything
   huge runs out of gas anyway, which we detect up front. *)
let as_offset v = match U256.to_int_opt v with Some n when n < 0x40000000 -> n | _ -> raise (Fail Out_of_gas)

let bool_word b = if b then U256.one else U256.zero

(* ---- EIP-2929 warm/cold access tracking (access-list specs only) ----

   First touch of an account or slot in a transaction pays the spec's
   cold surcharge and marks the location warm; later touches are cheap.
   Warm sets are NOT rolled back on revert (documented simplification,
   DESIGN.md §12) — every engine and the S-EVM builder share the rule,
   so the differential oracle holds.  Tracking covers exactly the
   opcodes the builder can observe: SLOAD, SSTORE, BALANCE and the CALL
   family; EXTCODE* stay flat under every fork. *)

let obs_warm_hits = Obs.counter "spec.warm_hits"
let obs_cold_misses = Obs.counter "spec.cold_misses"

let charge_cold_account ctx f a =
  if ctx.spec.Spec.has_access_lists then begin
    if Address.Tbl.mem ctx.warm_accounts a then Obs.incr obs_warm_hits
    else begin
      Address.Tbl.replace ctx.warm_accounts a ();
      Obs.incr obs_cold_misses;
      charge f ctx.spec.Spec.g_cold_account
    end
  end

let charge_cold_slot ctx f a k ~cost =
  if ctx.spec.Spec.has_access_lists then begin
    let key = (a, k) in
    if Slot.Tbl.mem ctx.warm_slots key then Obs.incr obs_warm_hits
    else begin
      Slot.Tbl.replace ctx.warm_slots key ();
      Obs.incr obs_cold_misses;
      charge f cost
    end
  end

(* SSTORE-clear refund (pre-Istanbul forks): fires per SSTORE writing a
   zero value — independent of the slot's prior state, so the refund is
   constant within a CD-Equiv class once the builder guards the written
   value's zeroness. *)
let note_sstore ctx v =
  if ctx.spec.Spec.refund_sstore_clear > 0 && U256.is_zero v then
    ctx.refund <- ctx.refund + ctx.spec.Spec.refund_sstore_clear

(* ---- logging with revert support ----

   The refund counter is journaled alongside the log length: a reverted
   or failed inner frame must undo the refunds it accumulated, exactly
   like its logs. *)

let log_snapshot ctx = (ctx.logs_len, ctx.refund)

let log_revert ctx (n, r) =
  while ctx.logs_len > n do
    ctx.logs <- List.tl ctx.logs;
    ctx.logs_len <- ctx.logs_len - 1
  done;
  ctx.refund <- r

let add_log ctx l =
  ctx.logs <- l :: ctx.logs;
  ctx.logs_len <- ctx.logs_len + 1

(* ---- tracing helpers ---- *)

(* The top [n] stack words, top first. *)
let capture_top f n =
  if n = 0 then [||]
  else begin
    let a = Array.make n f.stack.(f.sp - 1) in
    for i = 1 to n - 1 do
      a.(i) <- f.stack.(f.sp - 1 - i)
    done;
    a
  end

let capture_inputs f op = capture_top f (Op.stack_in op)
let capture_outputs f op = capture_top f (Op.stack_out op)

let emit ctx ev = match ctx.trace with Some sink -> sink ev | None -> ()

(* Call- and create-family steps are traced by their handlers, as a
   [Call_enter] carrying their own inputs; every other step becomes a
   [Step]. *)
let becomes_step (op : Op.t) =
  match op with
  | CALL | CALLCODE | DELEGATECALL | STATICCALL | CREATE | CREATE2 -> false
  | _ -> true

let emit_step ctx f pc op inputs outputs =
  emit ctx (Trace.Step { pc; depth = f.depth; ctx_address = f.ctx_address; op; inputs; outputs })

(* ---- create address derivation ---- *)

let create_address sender nonce =
  let enc = Rlp.encode (Rlp.List [ Rlp.Str (Address.to_bytes sender); Rlp.encode_int nonce ]) in
  Address.of_bytes (String.sub (Khash.Keccak.digest enc) 12 20)

let create2_address sender salt init_hash =
  let payload = "\xff" ^ Address.to_bytes sender ^ U256.to_bytes_be salt ^ init_hash in
  Address.of_bytes (String.sub (Khash.Keccak.digest payload) 12 20)

(* ---- precompiles: sha256 (0x02) and identity (0x04); other low addresses
   act as empty accounts (documented simplification). ---- *)

type precompile = P_sha256 | P_identity

let sha256_address = Address.of_int 2
let identity_address = Address.of_int 4

let precompile_of addr =
  if Address.equal addr sha256_address then Some P_sha256
  else if Address.equal addr identity_address then Some P_identity
  else None

let is_precompile addr = match precompile_of addr with Some _ -> true | None -> false

(* Returns (gas cost, output). *)
let run_precompile kind data =
  match kind with
  | P_identity -> (15 + (3 * Memory.words (String.length data)), data)
  | P_sha256 -> (60 + (12 * Memory.words (String.length data)), Khash.Sha256.digest data)

(* ---- the dispatch table ----

   One handler closure per opcode byte, installed after the recursive
   execution group below.  The decoded loop has already counted the step,
   validated the stack bounds and charged the hoisted static gas when a
   handler runs.  Unassigned bytes keep the default handler, which raises
   exactly like the legacy loop's [Op.of_byte] failure (0xfe INVALID also
   lands here: same failure, but decoded as a real opcode so it counts a
   step, like the legacy path). *)

let handler_table : (ctx -> frame -> Decode.instr -> unit) array =
  Array.make 256 (fun _ _ (i : Decode.instr) -> raise (Fail (Invalid_opcode i.Decode.op_id)))

(* The untraced engine dispatches on the instr's xop through this wider
   table: slots 0..255 mirror [handler_table], slots [0x100 + id] hold
   fused PUSH+op handlers for {!Decode.fusable_ids}, slots [0x200 + id]
   hold the PUSH+PUSH+op windows decode certifies against its leader
   bitmap.  The traced path always dispatches unfused so every step is
   captured individually. *)
let xtable : (ctx -> frame -> Decode.instr -> unit) array =
  Array.make 768 (fun _ _ (i : Decode.instr) -> raise (Fail (Invalid_opcode i.Decode.op_id)))

(* ---- message execution ---- *)

(* Execute the frame's code to completion with the ctx's engine. *)
let rec run_frame ctx f : status =
  match ctx.engine with Decoded -> exec_frame_decoded ctx f | Legacy -> exec_frame ctx f

(* Run a frame made with [new_stack] and return its stack to the pool.  The
   caller reads only the frame's gas afterwards.  A frame left by an
   exception keeps its stack, which the GC then reclaims. *)
and run_frame_release ctx f : status =
  let st = run_frame ctx f in
  let pool = Domain.DLS.get stack_pool in
  pool := f.stack :: !pool;
  st

(* The legacy engine: byte-at-a-time decode, giant-match dispatch.  Kept
   compiled as the reference the differential battery pins the decoded
   engine against; reachable only through [engine = Legacy]. *)
and exec_frame ctx f : status =
  let code = f.prog.Decode.code in
  let code_len = String.length code in
  let result = ref None in
  (try
     while Option.is_none !result do
       if f.pc >= code_len then result := Some (Returned "")
       else begin
         let byte = Char.code code.[f.pc] in
         match Op.of_byte byte with
         | None -> raise (Fail (Invalid_opcode byte))
         | Some op ->
           (* Opcode not yet introduced under this fork: exactly like an
              unassigned byte — no step, no charge (DESIGN.md §12). *)
           if not (Array.unsafe_get ctx.spec.Spec.available byte) then
             raise (Fail (Invalid_opcode byte));
           ctx.steps_executed <- ctx.steps_executed + 1;
           require f (Op.stack_in op);
           if Op.stack_out op - Op.stack_in op + f.sp > max_stack then
             raise (Fail Stack_overflow);
           charge f (Array.unsafe_get ctx.spec.Spec.static_gas byte);
           let stepped = ctx.trace <> None && becomes_step op in
           let ins = if stepped then capture_inputs f op else [||] in
           let pc0 = f.pc in
           (try exec_op ctx f op
            with Frame_done st ->
              if stepped then emit_step ctx f pc0 op ins [||];
              raise (Frame_done st));
           if stepped then emit_step ctx f pc0 op ins (capture_outputs f op);
           f.pc <- f.pc + 1;
           if op = STOP then result := Some (Returned "")
       end
     done
   with
  | Fail r -> result := Some (Failed r)
  | Frame_done st -> result := Some st);
  match !result with Some st -> st | None -> assert false

(* The decoded engine: index the pre-decoded stream by pc, validate with
   the two precomputed bounds, charge the hoisted static gas, dispatch
   through the handler table.  The untraced loop is kept minimal: all
   normal exits arrive as [Frame_done] (the STOP handler raises it, so
   there is no per-step terminator check) and dispatch goes through the
   wider [xtable], which fuses PUSH+op pairs. *)
and exec_frame_decoded ctx f : status =
  if ctx.trace <> None then exec_frame_decoded_traced ctx f
  else begin
    let instrs = f.prog.Decode.instrs in
    let code_len = Array.length instrs in
    try
      while true do
        if f.pc >= code_len then raise (Frame_done (Returned ""));
        let i = Array.unsafe_get instrs f.pc in
        (* one packed load covers step count, both stack bounds, the
           static charge and the dispatch id (Decode.meta layout); the
           max_sp clamp to 2047 is invisible because sp never exceeds
           1024 *)
        let m = i.Decode.meta in
        ctx.steps_executed <- ctx.steps_executed + (m lsr 41);
        if f.sp < (m lsr 10) land 0x1f then raise (Fail Stack_underflow);
        if f.sp > (m lsr 15) land 0x7ff then raise (Fail Stack_overflow);
        let g = (m lsr 26) land 0x7fff in
        if f.gas < g then raise (Fail Out_of_gas);
        f.gas <- f.gas - g;
        (Array.unsafe_get xtable (m land 0x3ff)) ctx f i;
        f.pc <- f.pc + 1
      done;
      assert false
    with
    | Fail r -> Failed r
    | Frame_done st -> st
  end

(* Traced variant: unfused dispatch through [handler_table] so every step
   is captured individually, with step records emitted around each
   handler. *)
and exec_frame_decoded_traced ctx f : status =
  let instrs = f.prog.Decode.instrs in
  let code_len = Array.length instrs in
  let result = ref None in
  (try
     while Option.is_none !result do
       if f.pc >= code_len then result := Some (Returned "")
       else begin
         let i = Array.unsafe_get instrs f.pc in
         let m = i.Decode.meta in
         ctx.steps_executed <- ctx.steps_executed + Decode.meta_steps m;
         if f.sp < Decode.meta_stack_in m then raise (Fail Stack_underflow);
         if f.sp > Decode.meta_max_sp m then raise (Fail Stack_overflow);
         let g = Decode.meta_static_gas m in
         if f.gas < g then raise (Fail Out_of_gas);
         f.gas <- f.gas - g;
         (* Unfused dispatch: the xop when it names a plain slot (this also
            routes spec-unavailable opcodes to the raising default), the
            PUSH's own [op_id] when the xop is a fused window's id. *)
         let xop = Decode.meta_xop m in
         let h = Array.unsafe_get handler_table (if xop < 256 then xop else i.Decode.op_id) in
         let op = i.Decode.op in
         let stepped = becomes_step op in
         let ins = if stepped then capture_inputs f op else [||] in
         let pc0 = f.pc in
         (try h ctx f i
          with Frame_done st ->
            if stepped then emit_step ctx f pc0 op ins [||];
            raise (Frame_done st));
         if stepped then emit_step ctx f pc0 op ins (capture_outputs f op);
         f.pc <- f.pc + 1
       end
     done
   with
  | Fail r -> result := Some (Failed r)
  | Frame_done st -> result := Some st);
  match !result with Some st -> st | None -> assert false

and exec_op ctx f (op : Op.t) =
  let st = ctx.st in
  match op with
  | STOP -> ()
  | ADD -> binop f U256.add
  | MUL -> binop f U256.mul
  | SUB -> binop f U256.sub
  | DIV -> binop f U256.div
  | SDIV -> binop f U256.sdiv
  | MOD -> binop f U256.rem
  | SMOD -> binop f U256.srem
  | ADDMOD -> triop f U256.addmod
  | MULMOD -> triop f U256.mulmod
  | EXP ->
    let base = pop f and e = pop f in
    charge f (ctx.spec.Spec.g_exp_byte * U256.byte_size e);
    push f (U256.exp base e)
  | SIGNEXTEND ->
    let k = pop f and x = pop f in
    push f (U256.signextend k x)
  | LT -> binop f (fun a b -> bool_word (U256.lt a b))
  | GT -> binop f (fun a b -> bool_word (U256.gt a b))
  | SLT -> binop f (fun a b -> bool_word (U256.slt a b))
  | SGT -> binop f (fun a b -> bool_word (U256.sgt a b))
  | EQ -> binop f (fun a b -> bool_word (U256.equal a b))
  | ISZERO -> push f (bool_word (U256.is_zero (pop f)))
  | AND -> binop f U256.logand
  | OR -> binop f U256.logor
  | XOR -> binop f U256.logxor
  | NOT -> push f (U256.lognot (pop f))
  | BYTE ->
    let i = pop f and x = pop f in
    push f (U256.byte i x)
  | SHL -> shiftop f (fun x n -> U256.shift_left x n)
  | SHR -> shiftop f (fun x n -> U256.shift_right x n)
  | SAR ->
    let n = pop f and x = pop f in
    (match U256.to_int_opt n with
    | Some k when k < 256 -> push f (U256.shift_right_arith x k)
    | _ -> push f (if U256.testbit x 255 then U256.max_value else U256.zero))
  | SHA3 ->
    let off = as_offset (pop f) and len = as_offset (pop f) in
    charge f (Spec.g_sha3_word * Memory.words len);
    charge_mem f off len;
    push f (Khash.Keccak.digest_u256 (Memory.load f.mem off len))
  | ADDRESS -> push f (Address.to_u256 f.ctx_address)
  | BALANCE ->
    let a = Address.of_u256 (pop f) in
    charge_cold_account ctx f a;
    push f (Statedb.get_balance st a)
  | SELFBALANCE ->
    (* the executing account is warm by construction: warmed at call entry *)
    push f (Statedb.get_balance st f.ctx_address)
  | ORIGIN -> push f (Address.to_u256 ctx.origin)
  | CALLER -> push f (Address.to_u256 f.caller)
  | CALLVALUE -> push f f.value
  | CALLDATALOAD ->
    let off = pop f in
    (match U256.to_int_opt off with
    | Some o when o < String.length f.data || o < 0x40000000 ->
      push f (load_padded f.data o 32)
    | _ -> push f U256.zero)
  | CALLDATASIZE -> push f (U256.of_int (String.length f.data))
  | CALLDATACOPY -> copy_to_mem f f.data
  | CODESIZE -> push f (U256.of_int (String.length f.prog.Decode.code))
  | CODECOPY -> copy_to_mem f f.prog.Decode.code
  | GASPRICE -> push f ctx.gas_price
  | EXTCODESIZE ->
    push f (U256.of_int (String.length (Statedb.get_code st (Address.of_u256 (pop f)))))
  | EXTCODECOPY ->
    let addr = Address.of_u256 (pop f) in
    copy_to_mem f (Statedb.get_code st addr)
  | EXTCODEHASH ->
    let addr = Address.of_u256 (pop f) in
    if Statedb.is_empty_account st addr then push f U256.zero
    else push f (U256.of_bytes_be (Statedb.get_code_hash st addr))
  | RETURNDATASIZE -> push f (U256.of_int (String.length f.returndata))
  | RETURNDATACOPY ->
    let dst = as_offset (pop f) and src = as_offset (pop f) and len = as_offset (pop f) in
    if src + len > String.length f.returndata then raise (Fail Return_data_oob);
    charge f (Spec.g_copy_word * Memory.words len);
    charge_mem f dst len;
    Memory.store_slice f.mem ~dst ~src:f.returndata ~src_off:src ~len
  | BLOCKHASH ->
    let n = pop f in
    let cur = ctx.benv.number in
    (match U256.to_int_opt n with
    | Some bn
      when Int64.of_int bn < cur
           && Int64.compare (Int64.of_int bn) (Int64.sub cur 256L) >= 0 ->
      push f (ctx.benv.block_hash (Int64.of_int bn))
    | _ -> push f U256.zero)
  | COINBASE -> push f (Address.to_u256 ctx.benv.coinbase)
  | TIMESTAMP -> push f (U256.of_int64 ctx.benv.timestamp)
  | NUMBER -> push f (U256.of_int64 ctx.benv.number)
  | DIFFICULTY -> push f ctx.benv.difficulty
  | GASLIMIT -> push f (U256.of_int ctx.benv.gas_limit)
  | CHAINID -> push f (U256.of_int ctx.benv.chain_id)
  | POP -> ignore (pop f)
  | MLOAD ->
    let off = as_offset (pop f) in
    charge_mem f off 32;
    push f (Memory.load_word f.mem off)
  | MSTORE ->
    let off = as_offset (pop f) and v = pop f in
    charge_mem f off 32;
    Memory.store_word f.mem off v
  | MSTORE8 ->
    let off = as_offset (pop f) and v = pop f in
    charge_mem f off 1;
    Memory.store_byte f.mem off (U256.to_int_exn (U256.logand v (U256.of_int 0xff)))
  | SLOAD ->
    let k = pop f in
    charge_cold_slot ctx f f.ctx_address k ~cost:ctx.spec.Spec.g_cold_sload;
    push f (Statedb.get_storage st f.ctx_address k)
  | SSTORE ->
    if f.is_static then raise (Fail Static_violation);
    let k = pop f and v = pop f in
    charge_cold_slot ctx f f.ctx_address k ~cost:ctx.spec.Spec.g_cold_sstore;
    Statedb.set_storage st f.ctx_address k v;
    note_sstore ctx v
  | JUMP ->
    let dst = jump_target f (pop f) in
    f.pc <- dst - 1 (* -1: the loop advances past the opcode below *)
  | JUMPI ->
    let dst = pop f and cond = pop f in
    if not (U256.is_zero cond) then f.pc <- jump_target f dst - 1
  | PC -> push f (U256.of_int f.pc)
  | MSIZE -> push f (U256.of_int (Memory.size f.mem))
  | GAS -> push f (U256.of_int f.gas)
  | JUMPDEST -> ()
  | PUSH n ->
    push f (load_padded f.prog.Decode.code (f.pc + 1) n);
    f.pc <- f.pc + n
  | DUP n ->
    require f n;
    push f f.stack.(f.sp - n)
  | SWAP n ->
    require f (n + 1);
    let top = f.stack.(f.sp - 1) in
    f.stack.(f.sp - 1) <- f.stack.(f.sp - 1 - n);
    f.stack.(f.sp - 1 - n) <- top
  | LOG n ->
    if f.is_static then raise (Fail Static_violation);
    let off = as_offset (pop f) and len = as_offset (pop f) in
    let topics = List.init n (fun _ -> pop f) in
    charge f (Spec.g_log_byte * len);
    charge_mem f off len;
    add_log ctx
      { Env.log_address = f.ctx_address; topics; log_data = Memory.load f.mem off len }
  | CREATE | CREATE2 -> exec_create ctx f op
  | CALL | CALLCODE | DELEGATECALL | STATICCALL -> exec_call ctx f op
  | RETURN ->
    let off = as_offset (pop f) and len = as_offset (pop f) in
    charge_mem f off len;
    raise (Frame_done (Returned (Memory.load f.mem off len)))
  | REVERT ->
    let off = as_offset (pop f) and len = as_offset (pop f) in
    charge_mem f off len;
    raise (Frame_done (Reverted (Memory.load f.mem off len)))
  | INVALID -> raise (Fail (Invalid_opcode 0xfe))
  | SELFDESTRUCT ->
    if f.is_static then raise (Fail Static_violation);
    let beneficiary = Address.of_u256 (pop f) in
    let bal = Statedb.get_balance st f.ctx_address in
    Statedb.add_balance st beneficiary bal;
    Statedb.set_balance st f.ctx_address U256.zero;
    Statedb.self_destruct st f.ctx_address;
    raise (Frame_done (Returned ""))

(* In-place: callers are table handlers, so the decoded loop has already
   validated [stack_in = 2] — pop once and overwrite the new top. *)
and binop f g =
  f.sp <- f.sp - 1;
  f.stack.(f.sp - 1) <- g f.stack.(f.sp) f.stack.(f.sp - 1)

and triop f g =
  let a = pop f and b = pop f and c = pop f in
  push f (g a b c)

and shiftop f g =
  let n = pop f and x = pop f in
  match U256.to_int_opt n with
  | Some k when k < 256 -> push f (g x k)
  | _ -> push f U256.zero

and jump_target f dst =
  match U256.to_int_opt dst with
  | Some d when d < String.length f.prog.Decode.code && f.prog.Decode.jumpdests.(d) -> d
  | Some d -> raise (Fail (Invalid_jump d))
  | None -> raise (Fail (Invalid_jump (-1)))

and load_padded data off len =
  let b = Bytes.make len '\000' in
  for i = 0 to len - 1 do
    if off + i < String.length data && off + i >= 0 then Bytes.set b i data.[off + i]
  done;
  U256.of_bytes_be (Bytes.to_string b)

and copy_to_mem f src =
  let dst = as_offset (pop f) and src_off = as_offset (pop f) and len = as_offset (pop f) in
  charge f (Spec.g_copy_word * Memory.words len);
  charge_mem f dst len;
  Memory.store_slice f.mem ~dst ~src ~src_off ~len

(* ---- CALL family ---- *)

and exec_call ctx f op =
  let st = ctx.st in
  let gas_req = pop f in
  let target = Address.of_u256 (pop f) in
  let value = match op with Op.CALL | Op.CALLCODE -> pop f | _ -> U256.zero in
  let in_off = as_offset (pop f) in
  let in_len = as_offset (pop f) in
  let out_off = as_offset (pop f) in
  let out_len = as_offset (pop f) in
  if f.is_static && op = Op.CALL && not (U256.is_zero value) then
    raise (Fail Static_violation);
  (* Dynamic gas: cold-target surcharge (access-list specs), value
     transfer surcharge + new-account surcharge. *)
  charge_cold_account ctx f target;
  let has_value = not (U256.is_zero value) in
  if has_value then begin
    charge f Spec.g_call_value;
    if op = Op.CALL && not (Statedb.account_exists st target) then
      charge f Spec.g_new_account
  end;
  charge_mem f in_off in_len;
  charge_mem f out_off out_len;
  (* EIP-150 63/64 forwarding cap; pre-Tangerine forks forward all
     remaining gas. *)
  let max_forward =
    if ctx.spec.Spec.has_63_64 then f.gas - (f.gas / 64) else f.gas
  in
  let requested = match U256.to_int_opt gas_req with Some g -> g | None -> max_int in
  let forwarded = min requested max_forward in
  charge f forwarded;
  let callee_gas = if has_value then forwarded + Spec.g_call_stipend else forwarded in
  let data = Memory.load f.mem in_off in_len in
  let ctx_addr, code_addr, caller, call_value, transfer, static =
    match op with
    | Op.CALL -> (target, target, f.ctx_address, value, has_value, f.is_static)
    | Op.CALLCODE -> (f.ctx_address, target, f.ctx_address, value, false, f.is_static)
    | Op.DELEGATECALL -> (f.ctx_address, target, f.caller, f.value, false, f.is_static)
    | Op.STATICCALL -> (target, target, f.ctx_address, U256.zero, false, true)
    | _ -> assert false
  in
  let kind =
    match op with
    | Op.CALL -> Trace.C_call
    | Op.CALLCODE -> Trace.C_callcode
    | Op.DELEGATECALL -> Trace.C_delegate
    | _ -> Trace.C_static
  in
  let code = Statedb.get_code st code_addr in
  let step_info =
    if ctx.trace <> None then
      Some
        {
          Trace.kind;
          child_ctx = ctx_addr;
          child_code_addr = code_addr;
          child_code = code;
          transfer = (if transfer then Some value else None);
        }
    else None
  in
  let emit_enter inputs =
    match step_info with
    | Some info ->
      emit ctx
        (Trace.Call_enter
           ( {
               pc = f.pc;
               depth = f.depth;
               ctx_address = f.ctx_address;
               op;
               inputs;
               outputs = [||];
             },
             info ))
    | None -> ()
  in
  let inputs =
    if ctx.trace <> None then
      match op with
      | Op.CALL | Op.CALLCODE ->
        [| gas_req; Address.to_u256 target; value; U256.of_int in_off; U256.of_int in_len;
           U256.of_int out_off; U256.of_int out_len |]
      | _ ->
        [| gas_req; Address.to_u256 target; U256.of_int in_off; U256.of_int in_len;
           U256.of_int out_off; U256.of_int out_len |]
    else [||]
  in
  emit_enter inputs;
  let finish ~success ~output ~gas_back ~reason =
    f.gas <- f.gas + gas_back;
    f.returndata <- output;
    let n = min (String.length output) out_len in
    if n > 0 then Memory.store_slice f.mem ~dst:out_off ~src:output ~src_off:0 ~len:n;
    emit ctx (Trace.Call_exit { success; output; reason });
    push f (bool_word success)
  in
  if f.depth + 1 > max_depth then
    finish ~success:false ~output:"" ~gas_back:forwarded ~reason:Trace.X_depth
  else if transfer && U256.lt (Statedb.get_balance st f.ctx_address) value then
    finish ~success:false ~output:"" ~gas_back:forwarded ~reason:Trace.X_balance
  else begin
    let snap = Statedb.snapshot st in
    let lsnap = log_snapshot ctx in
    if transfer then begin
      Statedb.sub_balance st f.ctx_address value;
      Statedb.add_balance st ctx_addr value
    end;
    (match precompile_of code_addr with
    | Some kind ->
      let cost, output = run_precompile kind data in
      if callee_gas < cost then begin
        Statedb.revert st snap;
        log_revert ctx lsnap;
        finish ~success:false ~output:"" ~gas_back:0 ~reason:Trace.X_completed
      end
      else
        finish ~success:true ~output ~gas_back:(callee_gas - cost) ~reason:Trace.X_completed
    | None ->
    if code = "" then
      finish ~success:true ~output:"" ~gas_back:callee_gas ~reason:Trace.X_completed
    else begin
      let child =
        {
          ctx_address = ctx_addr;
          code_address = code_addr;
          prog = prog_of_account ctx code_addr code;
          caller;
          value = call_value;
          data;
          is_static = static;
          depth = f.depth + 1;
          mem = Memory.create ();
          stack = new_stack ();
          sp = 0;
          gas = callee_gas;
          pc = 0;
          returndata = "";
        }
      in
      match run_frame_release ctx child with
      | Returned out ->
        finish ~success:true ~output:out ~gas_back:child.gas ~reason:Trace.X_completed
      | Reverted out ->
        Statedb.revert st snap;
        log_revert ctx lsnap;
        finish ~success:false ~output:out ~gas_back:child.gas ~reason:Trace.X_completed
      | Failed _ ->
        Statedb.revert st snap;
        log_revert ctx lsnap;
        finish ~success:false ~output:"" ~gas_back:0 ~reason:Trace.X_completed
    end)
  end

(* ---- CREATE family ---- *)

and exec_create ctx f op =
  let st = ctx.st in
  if f.is_static then raise (Fail Static_violation);
  let value = pop f in
  let off = as_offset (pop f) in
  let len = as_offset (pop f) in
  let create2 = match op with Op.CREATE2 -> true | _ -> false in
  let salt = if create2 then pop f else U256.zero in
  if create2 then charge f (Spec.g_sha3_word * Memory.words len);
  charge_mem f off len;
  let initcode = Memory.load f.mem off len in
  let init_hash = Khash.Keccak.digest initcode in
  let max_forward =
    if ctx.spec.Spec.has_63_64 then f.gas - (f.gas / 64) else f.gas
  in
  charge f max_forward;
  let inputs =
    if ctx.trace <> None then
      if create2 then [| value; U256.of_int off; U256.of_int len; salt |]
      else [| value; U256.of_int off; U256.of_int len |]
    else [||]
  in
  let sender_nonce = Statedb.get_nonce st f.ctx_address in
  let new_addr =
    if create2 then create2_address f.ctx_address salt init_hash
    else create_address f.ctx_address sender_nonce
  in
  (* creation makes the new account warm, with no cold charge *)
  if ctx.spec.Spec.has_access_lists then Address.Tbl.replace ctx.warm_accounts new_addr ();
  let emit_enter () =
    if ctx.trace <> None then
      emit ctx
        (Trace.Call_enter
           ( {
               pc = f.pc;
               depth = f.depth;
               ctx_address = f.ctx_address;
               op;
               inputs;
               outputs = [||];
             },
             {
               Trace.kind = (if create2 then Trace.C_create2 else Trace.C_create);
               child_ctx = new_addr;
               child_code_addr = new_addr;
               child_code = initcode;
               transfer = (if U256.is_zero value then None else Some value);
             } ))
  in
  emit_enter ();
  let fail_cheap reason =
    f.gas <- f.gas + max_forward;
    f.returndata <- "";
    emit ctx (Trace.Call_exit { success = false; output = ""; reason });
    push f U256.zero
  in
  if f.depth + 1 > max_depth then fail_cheap Trace.X_depth
  else if U256.lt (Statedb.get_balance st f.ctx_address) value then
    fail_cheap Trace.X_balance
  else begin
    Statedb.incr_nonce st f.ctx_address;
    let snap = Statedb.snapshot st in
    let lsnap = log_snapshot ctx in
    (* Address collision: existing code or nonce at the target. *)
    let collision =
      Statedb.get_nonce st new_addr > 0 || Statedb.get_code st new_addr <> ""
    in
    if collision then begin
      emit ctx (Trace.Call_exit { success = false; output = ""; reason = Trace.X_completed });
      f.returndata <- "";
      push f U256.zero
    end
    else begin
      if not (U256.is_zero value) then begin
        Statedb.sub_balance st f.ctx_address value;
        Statedb.add_balance st new_addr value
      end;
      Statedb.set_nonce st new_addr 1;
      let child =
        {
          ctx_address = new_addr;
          code_address = new_addr;
          prog = Decode.get ~hash:init_hash ~spec:ctx.spec initcode;
          caller = f.ctx_address;
          value;
          data = "";
          is_static = false;
          depth = f.depth + 1;
          mem = Memory.create ();
          stack = new_stack ();
          sp = 0;
          gas = max_forward;
          pc = 0;
          returndata = "";
        }
      in
      let deploy st_result =
        match st_result with
        | Returned deployed ->
          let deposit = Spec.g_code_deposit_byte * String.length deployed in
          if String.length deployed > max_code_size then begin
            Statedb.revert st snap;
            log_revert ctx lsnap;
            emit ctx
              (Trace.Call_exit { success = false; output = ""; reason = Trace.X_completed });
            f.returndata <- "";
            push f U256.zero
          end
          else if child.gas < deposit then begin
            Statedb.revert st snap;
            log_revert ctx lsnap;
            emit ctx
              (Trace.Call_exit { success = false; output = ""; reason = Trace.X_completed });
            f.returndata <- "";
            push f U256.zero
          end
          else begin
            child.gas <- child.gas - deposit;
            Statedb.set_code st new_addr deployed;
            f.gas <- f.gas + child.gas;
            f.returndata <- "";
            emit ctx
              (Trace.Call_exit { success = true; output = deployed; reason = Trace.X_completed });
            push f (Address.to_u256 new_addr)
          end
        | Reverted out ->
          Statedb.revert st snap;
          log_revert ctx lsnap;
          f.gas <- f.gas + child.gas;
          f.returndata <- out;
          emit ctx (Trace.Call_exit { success = false; output = out; reason = Trace.X_completed });
          push f U256.zero
        | Failed _ ->
          Statedb.revert st snap;
          log_revert ctx lsnap;
          f.returndata <- "";
          emit ctx (Trace.Call_exit { success = false; output = ""; reason = Trace.X_completed });
          push f U256.zero
      in
      deploy (run_frame_release ctx child)
    end
  end

(* ---- handler installation ----

   Specialized closures for the cheap, hot opcodes (no re-derivation, no
   redundant checks — the loop already validated arity via the decoded
   bounds); the long tail (calls, creates, copies, logs, terminators)
   delegates to the same [exec_op] arms the legacy engine runs, so the
   complex opcodes share one implementation by construction. *)

let () =
  let h b f = handler_table.(b) <- f in
  let delegate b = h b (fun ctx f (i : Decode.instr) -> exec_op ctx f i.Decode.op) in
  h 0x00 (fun _ _ _ -> raise (Frame_done (Returned "")));
  h 0x01 (fun _ f _ -> binop f U256.add);
  h 0x02 (fun _ f _ -> binop f U256.mul);
  h 0x03 (fun _ f _ -> binop f U256.sub);
  h 0x04 (fun _ f _ -> binop f U256.div);
  h 0x05 (fun _ f _ -> binop f U256.sdiv);
  h 0x06 (fun _ f _ -> binop f U256.rem);
  h 0x07 (fun _ f _ -> binop f U256.srem);
  h 0x08 (fun _ f _ -> triop f U256.addmod);
  h 0x09 (fun _ f _ -> triop f U256.mulmod);
  delegate 0x0a (* EXP: dynamic gas *);
  h 0x0b (fun _ f _ ->
      let k = pop f and x = pop f in
      push f (U256.signextend k x));
  h 0x10 (fun _ f _ -> binop f (fun a b -> bool_word (U256.lt a b)));
  h 0x11 (fun _ f _ -> binop f (fun a b -> bool_word (U256.gt a b)));
  h 0x12 (fun _ f _ -> binop f (fun a b -> bool_word (U256.slt a b)));
  h 0x13 (fun _ f _ -> binop f (fun a b -> bool_word (U256.sgt a b)));
  h 0x14 (fun _ f _ -> binop f (fun a b -> bool_word (U256.equal a b)));
  h 0x15 (fun _ f _ -> push f (bool_word (U256.is_zero (pop f))));
  h 0x16 (fun _ f _ -> binop f U256.logand);
  h 0x17 (fun _ f _ -> binop f U256.logor);
  h 0x18 (fun _ f _ -> binop f U256.logxor);
  h 0x19 (fun _ f _ -> push f (U256.lognot (pop f)));
  h 0x1a (fun _ f _ ->
      let i = pop f and x = pop f in
      push f (U256.byte i x));
  h 0x1b (fun _ f _ -> shiftop f (fun x n -> U256.shift_left x n));
  h 0x1c (fun _ f _ -> shiftop f (fun x n -> U256.shift_right x n));
  delegate 0x1d (* SAR *);
  h 0x20 (fun _ f _ ->
      let off = as_offset (pop f) and len = as_offset (pop f) in
      charge f (Spec.g_sha3_word * Memory.words len);
      charge_mem f off len;
      push f (Khash.Keccak.digest_u256 (Memory.load f.mem off len)));
  h 0x30 (fun _ f _ -> push f (Address.to_u256 f.ctx_address));
  h 0x31 (fun ctx f _ ->
      let a = Address.of_u256 (pop f) in
      charge_cold_account ctx f a;
      push f (Statedb.get_balance ctx.st a));
  h 0x32 (fun ctx f _ -> push f (Address.to_u256 ctx.origin));
  h 0x33 (fun _ f _ -> push f (Address.to_u256 f.caller));
  h 0x34 (fun _ f _ -> push f f.value);
  delegate 0x35 (* CALLDATALOAD *);
  h 0x36 (fun _ f _ -> push f (U256.of_int (String.length f.data)));
  delegate 0x37 (* CALLDATACOPY *);
  h 0x38 (fun _ f _ -> push f (U256.of_int (String.length f.prog.Decode.code)));
  delegate 0x39 (* CODECOPY *);
  h 0x3a (fun ctx f _ -> push f ctx.gas_price);
  delegate 0x3b;
  delegate 0x3c;
  h 0x3d (fun _ f _ -> push f (U256.of_int (String.length f.returndata)));
  delegate 0x3e (* RETURNDATACOPY *);
  delegate 0x3f (* EXTCODEHASH *);
  delegate 0x40 (* BLOCKHASH *);
  h 0x41 (fun ctx f _ -> push f (Address.to_u256 ctx.benv.coinbase));
  h 0x42 (fun ctx f _ -> push f (U256.of_int64 ctx.benv.timestamp));
  h 0x43 (fun ctx f _ -> push f (U256.of_int64 ctx.benv.number));
  h 0x44 (fun ctx f _ -> push f ctx.benv.difficulty);
  h 0x45 (fun ctx f _ -> push f (U256.of_int ctx.benv.gas_limit));
  h 0x46 (fun ctx f _ -> push f (U256.of_int ctx.benv.chain_id));
  h 0x47 (fun ctx f _ -> push f (Statedb.get_balance ctx.st f.ctx_address));
  h 0x50 (fun _ f _ -> ignore (pop f));
  h 0x51 (fun _ f _ ->
      let off = as_offset (pop f) in
      charge_mem f off 32;
      push f (Memory.load_word f.mem off));
  h 0x52 (fun _ f _ ->
      let off = as_offset (pop f) and v = pop f in
      charge_mem f off 32;
      Memory.store_word f.mem off v);
  delegate 0x53 (* MSTORE8 *);
  h 0x54 (fun ctx f _ ->
      let k = pop f in
      charge_cold_slot ctx f f.ctx_address k ~cost:ctx.spec.Spec.g_cold_sload;
      push f (Statedb.get_storage ctx.st f.ctx_address k));
  h 0x55 (fun ctx f _ ->
      if f.is_static then raise (Fail Static_violation);
      let k = pop f and v = pop f in
      charge_cold_slot ctx f f.ctx_address k ~cost:ctx.spec.Spec.g_cold_sstore;
      Statedb.set_storage ctx.st f.ctx_address k v;
      note_sstore ctx v);
  h 0x56 (fun _ f _ -> f.pc <- jump_target f (pop f) - 1);
  h 0x57 (fun _ f _ ->
      let dst = pop f and cond = pop f in
      if not (U256.is_zero cond) then f.pc <- jump_target f dst - 1);
  h 0x58 (fun _ f _ -> push f (U256.of_int f.pc));
  h 0x59 (fun _ f _ -> push f (U256.of_int (Memory.size f.mem)));
  h 0x5a (fun _ f _ -> push f (U256.of_int f.gas));
  h 0x5b (fun _ _ _ -> ());
  (* JUMPDEST *)
  for b = 0x60 to 0x7f do
    (* PUSH1..PUSH32: the immediate was materialized at decode time *)
    h b (fun _ f (i : Decode.instr) ->
        push f i.Decode.imm;
        f.pc <- i.Decode.next - 1)
  done;
  for b = 0x80 to 0x8f do
    let n = b - 0x7f in
    (* DUPn: depth n checked by the decoded [stack_in] bound *)
    h b (fun _ f _ -> push f f.stack.(f.sp - n))
  done;
  for b = 0x90 to 0x9f do
    let n = b - 0x8f in
    (* SWAPn: depth n+1 checked by the decoded [stack_in] bound *)
    h b (fun _ f _ ->
        let top = f.stack.(f.sp - 1) in
        f.stack.(f.sp - 1) <- f.stack.(f.sp - 1 - n);
        f.stack.(f.sp - 1 - n) <- top)
  done;
  for b = 0xa0 to 0xa4 do
    delegate b (* LOG0..LOG4 *)
  done;
  List.iter delegate
    [ 0xf0 (* CREATE *); 0xf1 (* CALL *); 0xf2 (* CALLCODE *); 0xf3 (* RETURN *);
      0xf4 (* DELEGATECALL *); 0xf5 (* CREATE2 *); 0xfa (* STATICCALL *);
      0xfd (* REVERT *); 0xff (* SELFDESTRUCT *) ]
(* 0xfe INVALID and every unassigned byte keep the default raising handler *)

(* ---- fused PUSH+op handlers (untraced engine only) ----

   Slots [0x100 + id] of [xtable] execute a PUSH and its consumer in one
   dispatch, the pushed word taken straight from the decoded immediate.
   The wrapper replays the consumer's loop prologue exactly — step count,
   underflow against [stack_in] minus the word the PUSH supplies, static
   charge — so the pair is observationally identical to two unfused steps.
   The overflow check is dropped: every {!Decode.fusable_ids} member has
   stack_out <= stack_in, so the pair never grows the stack past the
   PUSH the loop already validated. *)

(* The consumer's loop prologue, replayed by every fused handler: step
   count, underflow against [stack_in] minus the word the PUSH supplies,
   static charge, and the fall-through pc (jump handlers re-assign it). *)
let[@inline] fused_prologue ctx f (i : Decode.instr) si sg =
  ctx.steps_executed <- ctx.steps_executed + 1;
  if f.sp < si then raise (Fail Stack_underflow);
  if f.gas < sg then raise (Fail Out_of_gas);
  f.gas <- f.gas - sg;
  f.pc <- i.Decode.next

let () =
  Array.blit handler_table 0 xtable 0 256;
  (* [mk si sg] builds the complete handler as ONE closure — the prologue
     constants are captured, not re-derived, and there is no second
     indirect call through a wrapper. *)
  let fuse id mk =
    let op = match Op.of_byte id with Some op -> op | None -> assert false in
    xtable.(0x100 lor id) <- mk (Op.stack_in op - 1) (Spec.static_gas (Spec.default ()) id)
  in
  (* a = the pushed word: it sits on top, so it is the first legacy pop *)
  let fuse_binop id g =
    fuse id (fun si sg ctx f (i : Decode.instr) ->
        fused_prologue ctx f i si sg;
        f.stack.(f.sp - 1) <- g i.Decode.imm f.stack.(f.sp - 1))
  in
  fuse_binop 0x01 U256.add;
  fuse_binop 0x02 U256.mul;
  fuse_binop 0x03 U256.sub;
  fuse_binop 0x04 U256.div;
  fuse_binop 0x10 (fun a b -> bool_word (U256.lt a b));
  fuse_binop 0x11 (fun a b -> bool_word (U256.gt a b));
  fuse_binop 0x14 (fun a b -> bool_word (U256.equal a b));
  fuse_binop 0x16 U256.logand;
  fuse_binop 0x17 U256.logor;
  fuse_binop 0x18 U256.logxor;
  (* the PUSH supplies the shift amount (the legacy pair pops it first) *)
  let fuse_shift id g =
    fuse id (fun si sg ctx f (i : Decode.instr) ->
        fused_prologue ctx f i si sg;
        let k = i.Decode.imm_i in
        f.stack.(f.sp - 1) <-
          (if k >= 0 && k < 256 then g f.stack.(f.sp - 1) k else U256.zero))
  in
  fuse_shift 0x1b (fun x n -> U256.shift_left x n);
  fuse_shift 0x1c (fun x n -> U256.shift_right x n);
  (* MLOAD/MSTORE: [imm_i < 0] means the immediate exceeds int range, the
     same cases [as_offset] turns into Out_of_gas on the unfused path *)
  fuse 0x51 (fun si sg ctx f (i : Decode.instr) ->
      fused_prologue ctx f i si sg;
      let off = i.Decode.imm_i in
      if off < 0 || off >= 0x40000000 then raise (Fail Out_of_gas);
      charge_mem f off 32;
      f.stack.(f.sp) <- Memory.load_word f.mem off;
      f.sp <- f.sp + 1);
  fuse 0x52 (fun si sg ctx f (i : Decode.instr) ->
      fused_prologue ctx f i si sg;
      let off = i.Decode.imm_i in
      if off < 0 || off >= 0x40000000 then raise (Fail Out_of_gas);
      f.sp <- f.sp - 1;
      let v = f.stack.(f.sp) in
      charge_mem f off 32;
      Memory.store_word f.mem off v);
  (* SLOAD is the one fusable opcode whose static cost varies per fork
     (50/200/800/100 across the ladder) and the only one with a warmth
     surcharge — the charge comes from the ctx's spec, not the baked
     Istanbul constant. *)
  fuse 0x54 (fun si _sg ctx f (i : Decode.instr) ->
      fused_prologue ctx f i si (Array.unsafe_get ctx.spec.Spec.static_gas 0x54);
      charge_cold_slot ctx f f.ctx_address i.Decode.imm ~cost:ctx.spec.Spec.g_cold_sload;
      f.stack.(f.sp) <- Statedb.get_storage ctx.st f.ctx_address i.Decode.imm;
      f.sp <- f.sp + 1);
  (* immediate jump target, validated like [jump_target] with identical
     Invalid_jump payloads (-1 when the immediate exceeds int range) *)
  let target f (i : Decode.instr) =
    let d = i.Decode.imm_i in
    if d >= 0 && d < String.length f.prog.Decode.code && f.prog.Decode.jumpdests.(d)
    then d
    else raise (Fail (Invalid_jump (if d >= 0 then d else -1)))
  in
  fuse 0x56 (fun si sg ctx f i ->
      fused_prologue ctx f i si sg;
      f.pc <- target f i - 1);
  fuse 0x57 (fun si sg ctx f i ->
      fused_prologue ctx f i si sg;
      f.sp <- f.sp - 1;
      if not (U256.is_zero f.stack.(f.sp)) then f.pc <- target f i - 1);
  fuse 0x90 (fun si sg ctx f (i : Decode.instr) ->
      fused_prologue ctx f i si sg;
      f.stack.(f.sp) <- f.stack.(f.sp - 1);
      f.stack.(f.sp - 1) <- i.Decode.imm;
      f.sp <- f.sp + 1)

(* ---- certified windows: PUSH+PUSH+op triples ----

   Decode emits [0x200 + id] xops only for windows with no block leader
   inside, so no jump lands inside the window.  Each handler replays the
   constituent steps' loop prologues in legacy order — step count, stack
   bounds, static charge taken from the decoded (spec-correct) instrs —
   so a window is observationally identical to its unfused steps,
   including steps_executed and gas at a mid-window failure.  Checks that
   cannot fire are dropped: after two PUSHes the third op (all have
   stack_in >= 2, stack_out <= 2) cannot underflow or overflow past what
   the second PUSH's own bound already admitted. *)

let () =
  (* Second PUSH + third op prologues.  The second PUSH's overflow check is
     the one bound that can fire mid-window (sp was validated only against
     the first PUSH). *)
  let triple_pre ctx f (i : Decode.instr) =
    let instrs = f.prog.Decode.instrs in
    let i2 = Array.unsafe_get instrs i.Decode.next in
    let i3 = Array.unsafe_get instrs i2.Decode.next in
    ctx.steps_executed <- ctx.steps_executed + 1;
    if f.sp + 1 > Decode.meta_max_sp i2.Decode.meta then raise (Fail Stack_overflow);
    let g2 = Decode.meta_static_gas i2.Decode.meta in
    if f.gas < g2 then raise (Fail Out_of_gas);
    f.gas <- f.gas - g2;
    ctx.steps_executed <- ctx.steps_executed + 1;
    let g3 = Decode.meta_static_gas i3.Decode.meta in
    if f.gas < g3 then raise (Fail Out_of_gas);
    f.gas <- f.gas - g3;
    i2
  in
  (* stack after the two pushes: top = i2.imm, second = i.imm; binop's
     argument order is (top, second) *)
  let triple_binop id g =
    xtable.(0x200 lor id) <-
      (fun ctx f (i : Decode.instr) ->
        let i2 = triple_pre ctx f i in
        f.stack.(f.sp) <- g i2.Decode.imm i.Decode.imm;
        f.sp <- f.sp + 1;
        f.pc <- i2.Decode.next)
  in
  triple_binop 0x01 U256.add;
  triple_binop 0x02 U256.mul;
  triple_binop 0x03 U256.sub;
  triple_binop 0x04 U256.div;
  triple_binop 0x10 (fun a b -> bool_word (U256.lt a b));
  triple_binop 0x11 (fun a b -> bool_word (U256.gt a b));
  triple_binop 0x14 (fun a b -> bool_word (U256.equal a b));
  triple_binop 0x16 U256.logand;
  triple_binop 0x17 U256.logor;
  triple_binop 0x18 U256.logxor;
  (* the second PUSH supplies the shift amount (popped first) *)
  let triple_shift id g =
    xtable.(0x200 lor id) <-
      (fun ctx f (i : Decode.instr) ->
        let i2 = triple_pre ctx f i in
        let k = i2.Decode.imm_i in
        f.stack.(f.sp) <-
          (if k >= 0 && k < 256 then g i.Decode.imm k else U256.zero);
        f.sp <- f.sp + 1;
        f.pc <- i2.Decode.next)
  in
  triple_shift 0x1b (fun x n -> U256.shift_left x n);
  triple_shift 0x1c (fun x n -> U256.shift_right x n);
  (* PUSH value, PUSH offset, MSTORE *)
  xtable.(0x200 lor 0x52) <-
    (fun ctx f (i : Decode.instr) ->
      let i2 = triple_pre ctx f i in
      let off = i2.Decode.imm_i in
      if off < 0 || off >= 0x40000000 then raise (Fail Out_of_gas);
      charge_mem f off 32;
      Memory.store_word f.mem off i.Decode.imm;
      f.pc <- i2.Decode.next)

(* ---- top-level message (used by the transaction processor) ---- *)

type call_result = { success : bool; output : string; gas_left : int }

let call_message ctx ~caller ~target ~value ~data ~gas =
  let st = ctx.st in
  let snap = Statedb.snapshot st in
  let lsnap = log_snapshot ctx in
  if not (U256.is_zero value) then begin
    Statedb.sub_balance st caller value;
    Statedb.add_balance st target value
  end;
  let code = Statedb.get_code st target in
  match precompile_of target with
  | Some kind ->
    let cost, output = run_precompile kind data in
    if gas < cost then begin
      Statedb.revert st snap;
      log_revert ctx lsnap;
      { success = false; output = ""; gas_left = 0 }
    end
    else { success = true; output; gas_left = gas - cost }
  | None ->
  if code = "" then { success = true; output = ""; gas_left = gas }
  else begin
    let f =
      {
        ctx_address = target;
        code_address = target;
        prog = prog_of_account ctx target code;
        caller;
        value;
        data;
        is_static = false;
        depth = 0;
        mem = Memory.create ();
        stack = new_stack ();
        sp = 0;
        gas;
        pc = 0;
        returndata = "";
      }
    in
    match run_frame_release ctx f with
    | Returned out -> { success = true; output = out; gas_left = f.gas }
    | Reverted out ->
      Statedb.revert st snap;
      log_revert ctx lsnap;
      { success = false; output = out; gas_left = f.gas }
    | Failed _ ->
      Statedb.revert st snap;
      log_revert ctx lsnap;
      { success = false; output = ""; gas_left = 0 }
  end

let create_message ctx ~caller ~value ~initcode ~gas =
  let st = ctx.st in
  let nonce = Statedb.get_nonce st caller - 1 in
  (* The processor already bumped the sender nonce; contract address uses the
     pre-bump value, matching Ethereum. *)
  let new_addr = create_address caller nonce in
  if ctx.spec.Spec.has_access_lists then Address.Tbl.replace ctx.warm_accounts new_addr ();
  let snap = Statedb.snapshot st in
  let lsnap = log_snapshot ctx in
  if Statedb.get_nonce st new_addr > 0 || Statedb.get_code st new_addr <> "" then
    { success = false; output = ""; gas_left = 0 }
  else begin
    if not (U256.is_zero value) then begin
      Statedb.sub_balance st caller value;
      Statedb.add_balance st new_addr value
    end;
    Statedb.set_nonce st new_addr 1;
    let f =
      {
        ctx_address = new_addr;
        code_address = new_addr;
        prog = Decode.get ~hash:(Khash.Keccak.digest initcode) ~spec:ctx.spec initcode;
        caller;
        value;
        data = "";
        is_static = false;
        depth = 0;
        mem = Memory.create ();
        stack = new_stack ();
        sp = 0;
        gas;
        pc = 0;
        returndata = "";
      }
    in
    match run_frame_release ctx f with
    | Returned deployed ->
      let deposit = Spec.g_code_deposit_byte * String.length deployed in
      if String.length deployed > max_code_size || f.gas < deposit then begin
        Statedb.revert st snap;
        log_revert ctx lsnap;
        { success = false; output = ""; gas_left = 0 }
      end
      else begin
        Statedb.set_code st new_addr deployed;
        { success = true; output = Address.to_bytes new_addr; gas_left = f.gas - deposit }
      end
    | Reverted out ->
      Statedb.revert st snap;
      log_revert ctx lsnap;
      { success = false; output = out; gas_left = f.gas }
    | Failed _ ->
      Statedb.revert st snap;
      log_revert ctx lsnap;
      { success = false; output = ""; gas_left = 0 }
  end
