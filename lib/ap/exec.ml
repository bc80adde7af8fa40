(* The transaction execution accelerator: runs an AP against the actual
   context on the critical path.  Guard nodes check-and-branch; memoization
   shortcuts skip whole blocks when register inputs repeat values seen
   during speculation; on constraint violation the caller falls back to full
   EVM execution (rollback-free: no state was written). *)

open State
module I = Sevm.Ir

type stats = {
  mutable executed : int; (* instructions actually run *)
  mutable skipped : int; (* instructions bypassed by shortcuts *)
  mutable guards : int;
  mutable memo_hits : int;
}

type outcome = Hit of Evm.Processor.receipt * stats | Violation

let obs_guard_checks = Obs.counter "ap.guard_checks"
let obs_shortcut_hits = Obs.counter "ap.shortcut_hits"
let obs_hits = Obs.counter "ap.hits"
let obs_violations = Obs.counter "ap.violations"
let obs_instrs_executed = Obs.counter "ap.instrs_executed"
let obs_instrs_skipped = Obs.counter "ap.instrs_skipped"

let value_of regs = function I.Const v -> v | I.Reg r -> regs.(r)

(* Fault injection for the conformance fuzzer's mutation smoke test: when
   set, every C_add computes a+b+1.  Must never be set outside tests. *)
let miscompile_add_for_tests = ref false

(* The executor's arithmetic, shared with the static verifier: lib/analysis
   replays memo segments through this exact function, so memo values
   recorded from the honest EVM trace expose the fault injection (or any
   future executor/IR evaluation skew) statically. *)
let compute op a b c =
  let v = I.eval_compute op a b c in
  if !miscompile_add_for_tests && op = I.C_add then U256.add v U256.one else v

let eval_read st (benv : Evm.Env.block_env) regs = function
  | I.R_timestamp -> U256.of_int64 benv.timestamp
  | I.R_number -> U256.of_int64 benv.number
  | I.R_coinbase -> Address.to_u256 benv.coinbase
  | I.R_difficulty -> benv.difficulty
  | I.R_gaslimit -> U256.of_int benv.gas_limit
  | I.R_blockhash op -> (
    let n = value_of regs op in
    match U256.to_int_opt n with
    | Some bn
      when Int64.of_int bn < benv.number && Int64.sub benv.number (Int64.of_int bn) <= 256L
      -> benv.block_hash (Int64.of_int bn)
    | Some _ | None -> U256.zero)
  | I.R_balance op -> Statedb.get_balance st (Address.of_u256 (value_of regs op))
  | I.R_nonce addr -> U256.of_int (Statedb.get_nonce st addr)
  | I.R_nonce_of op ->
    U256.of_int (Statedb.get_nonce st (Address.of_u256 (value_of regs op)))
  | I.R_storage (addr, key) -> Statedb.get_storage st addr key
  | I.R_storage_dyn (addr, key) -> Statedb.get_storage st addr (value_of regs key)
  | I.R_extcodesize op ->
    U256.of_int (String.length (Statedb.get_code st (Address.of_u256 (value_of regs op))))
  | I.R_extcodehash op ->
    let addr = Address.of_u256 (value_of regs op) in
    if Statedb.is_empty_account st addr then U256.zero
    else U256.of_bytes_be (Statedb.get_code_hash st addr)

let exec_instr st benv regs stats ins =
  stats.executed <- stats.executed + 1;
  match ins with
  | I.Compute (r, op, args) ->
    regs.(r) <-
      compute op (I.arg_value regs args 0) (I.arg_value regs args 1) (I.arg_value regs args 2)
  | I.Keccak (r, pieces) ->
    regs.(r) <- Khash.Keccak.digest_u256 (I.bytes_of_pieces regs pieces)
  | I.Sha256 (r, pieces) ->
    regs.(r) <- U256.of_bytes_be (Khash.Sha256.digest (I.bytes_of_pieces regs pieces))
  | I.Pack (r, pieces) -> regs.(r) <- U256.of_bytes_be (I.bytes_of_pieces regs pieces)
  | I.Read (r, src) -> regs.(r) <- eval_read st benv regs src
  | I.Guard _ | I.Guard_size _ | I.Guard_warm _ -> assert false

(* Do the registers hold memo [m]'s inputs from index [i] on? *)
let rec memo_matches regs (m : Program.memo) i =
  i >= Array.length m.in_regs
  || (U256.equal regs.(m.in_regs.(i)) m.in_vals.(i) && memo_matches regs m (i + 1))

(* Take the first matching shortcut: write its outputs and say so. *)
let rec take_memo regs = function
  | [] -> false
  | (m : Program.memo) :: rest ->
    if memo_matches regs m 0 then begin
      for i = 0 to Array.length m.out_regs - 1 do
        regs.(m.out_regs.(i)) <- m.out_vals.(i)
      done;
      true
    end
    else take_memo regs rest

(* Run a block, trying its memoization shortcuts first, then instruction
   by instruction.  [use_memos:false] disables shortcuts (the
   no-memoization ablation). *)
let exec_block ~use_memos st benv regs stats (b : Program.block) =
  if use_memos && take_memo regs b.memos then begin
    stats.memo_hits <- stats.memo_hits + 1;
    stats.skipped <- stats.skipped + Array.length b.instrs;
    Obs.incr obs_shortcut_hits
  end
  else
    for i = 0 to Array.length b.instrs - 1 do
      exec_instr st benv regs stats b.instrs.(i)
    done

let rec exec_blocks ~use_memos st benv regs stats = function
  | [] -> ()
  | b :: rest ->
    exec_block ~use_memos st benv regs stats b;
    exec_blocks ~use_memos st benv regs stats rest

let rec operand_values regs = function
  | [] -> []
  | o :: rest -> value_of regs o :: operand_values regs rest

(* One deferred write; logs are collected by [apply_writes]. *)
let apply_write st regs = function
  | I.W_log _ -> ()
  | I.W_nonce_set (addr, n) -> Statedb.set_nonce st addr n
  | I.W_nonce_dyn (a, n) ->
    Statedb.set_nonce st
      (Address.of_u256 (value_of regs a))
      (match U256.to_int_opt (value_of regs n) with Some v -> v | None -> 0)
  | I.W_code (addr, pieces) -> Statedb.set_code st addr (I.bytes_of_pieces regs pieces)
  | I.W_balance_set (addr_op, v) ->
    Statedb.set_balance st (Address.of_u256 (value_of regs addr_op)) (value_of regs v)
  | I.W_balance_add (addr_op, v) ->
    let a = Address.of_u256 (value_of regs addr_op) in
    Statedb.set_balance st a (U256.add (Statedb.get_balance st a) (value_of regs v))
  | I.W_balance_sub (addr_op, v) ->
    let a = Address.of_u256 (value_of regs addr_op) in
    Statedb.set_balance st a (U256.sub (Statedb.get_balance st a) (value_of regs v))
  | I.W_storage (addr, key, v) -> Statedb.set_storage st addr key (value_of regs v)
  | I.W_storage_dyn (addr, key, v) ->
    Statedb.set_storage st addr (value_of regs key) (value_of regs v)

(* Apply the deferred write set in order; returns the logs it committed. *)
let rec apply_writes st regs = function
  | [] -> []
  | I.W_log (addr, topics, data) :: rest ->
    let log =
      {
        Evm.Env.log_address = addr;
        topics = operand_values regs topics;
        log_data = I.bytes_of_pieces regs data;
      }
    in
    log :: apply_writes st regs rest
  | w :: rest ->
    apply_write st regs w;
    apply_writes st regs rest

(* The bind-inputs entry point (lib/apstore): a fresh register file for
   running [ap] on behalf of [tx], with the template's input registers
   pre-seeded from the transaction's own fields.  For ordinary
   per-transaction programs ([ap.inputs] empty) this is just the zeroed
   register file the executor always started from. *)
let bind_inputs ~spec (ap : Program.t) (tx : Evm.Env.tx) =
  let regs = Array.make (max ap.reg_count 1) U256.zero in
  I.bind_inputs ~spec tx ap.inputs regs;
  regs

exception Violated

(* The case of a guard node whose recorded key matches, or [Violated]. *)
let rec find_case v = function
  | [] -> raise Violated
  | (v', k) :: rest -> if U256.equal v v' then k else find_case v rest

let guard_checked stats =
  stats.guards <- stats.guards + 1;
  Obs.incr obs_guard_checks

let rec exec_node ~use_memos ~prewarm st benv regs stats tx = function
  | Program.Seq (b, k) ->
    exec_block ~use_memos st benv regs stats b;
    exec_node ~use_memos ~prewarm st benv regs stats tx k
  | Program.Branch (test, cases) ->
    guard_checked stats;
    let key =
      match test with
      | Program.Value op -> value_of regs op
      | Program.Size op -> U256.of_int (U256.byte_size (value_of regs op))
      | Program.Warm loc ->
        if Evm.Processor.entry_warm tx prewarm loc then U256.one else U256.zero
    in
    exec_node ~use_memos ~prewarm st benv regs stats tx (find_case key cases)
  | Program.Leaf leaf ->
    exec_blocks ~use_memos st benv regs stats leaf.fast;
    let sender_balance_before = Statedb.get_balance st tx.Evm.Env.sender in
    let sender_nonce_before = Statedb.get_nonce st tx.Evm.Env.sender in
    let logs = apply_writes st regs leaf.writes in
    let gas_used =
      match leaf.gas_used_src with
      | None -> leaf.gas_used
      | Some op -> (
        (* template serve: the In_gas_used register was seeded with the
           served transaction's own recomputed charge *)
        match U256.to_int_opt (value_of regs op) with
        | Some g -> g
        | None -> leaf.gas_used)
    in
    {
      Evm.Processor.status = leaf.status;
      gas_used;
      gas_refund = leaf.gas_refund;
      output = I.bytes_of_pieces regs leaf.output;
      logs;
      contract_address = Evm.Processor.created_address tx leaf.status;
      sender_balance_before;
      sender_nonce_before;
    }

(* Execute [ap] for [tx] in the actual context.  On violation nothing has
   been written (writes are deferred past every guard), so the caller can
   fall back to the EVM directly.  A program built under another fork is a
   violation before anything runs, and warmth branches are evaluated
   against the actual entry access list ([?prewarm], default empty) — so
   an AP specialized under warm access replayed cold falls back instead of
   inheriting the warm gas. *)
let execute ?(use_memos = true) ?spec ?(prewarm = []) (ap : Program.t) st benv
    (tx : Evm.Env.tx) : outcome =
  let spec = match spec with Some s -> s | None -> !Spec.current in
  let violation () =
    Obs.incr obs_violations;
    Violation
  in
  match ap.root with
  | Some root when ap.fork = spec.Spec.id -> (
    let regs = bind_inputs ~spec ap tx in
    let stats = { executed = 0; skipped = 0; guards = 0; memo_hits = 0 } in
    match exec_node ~use_memos ~prewarm st benv regs stats tx root with
    | receipt ->
      Obs.incr obs_hits;
      Obs.add obs_instrs_executed stats.executed;
      Obs.add obs_instrs_skipped stats.skipped;
      Hit (receipt, stats)
    | exception Violated -> violation ())
  | Some _ | None -> violation ()

let execute_or_fallback ?use_memos ?spec ?prewarm ap st benv tx =
  match execute ?use_memos ?spec ?prewarm ap st benv tx with
  | Hit (receipt, stats) -> (receipt, Some stats)
  | Violation -> (Evm.Processor.execute_tx ?spec ?prewarm st benv tx, None)
