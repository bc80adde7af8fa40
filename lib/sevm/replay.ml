(* Linear replay of one S-EVM path: constraint section first (all guards
   checked), then the fast path, then the deferred writes — the Sevm
   oracle lane's engine and nothing more.  Kept independent of lib/ap on
   purpose — see the .mli. *)

open State
module I = Ir

type violation = { index : int; detail : string }

type outcome =
  | Replayed of Evm.Processor.receipt
  | Violated of violation

exception Guard_failed of violation

let value_of regs = function
  | I.Const v -> v
  | I.Reg r -> regs.(r)

(* Context reads, re-derived from the interpreter's semantics (interp.ml)
   rather than borrowed from Ap.Exec. *)
let eval_read st (benv : Evm.Env.block_env) regs src =
  match src with
  | I.R_timestamp -> U256.of_int64 benv.timestamp
  | I.R_number -> U256.of_int64 benv.number
  | I.R_coinbase -> Address.to_u256 benv.coinbase
  | I.R_difficulty -> benv.difficulty
  | I.R_gaslimit -> U256.of_int benv.gas_limit
  | I.R_blockhash op -> (
    let cur = benv.number in
    match U256.to_int_opt (value_of regs op) with
    | Some bn
      when Int64.of_int bn < cur
           && Int64.compare (Int64.of_int bn) (Int64.sub cur 256L) >= 0 ->
      benv.block_hash (Int64.of_int bn)
    | _ -> U256.zero)
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

let step ~warm st benv regs i ins =
  match ins with
  | I.Compute (r, op, args) ->
    let arg = I.arg_value regs args in
    regs.(r) <- I.eval_compute op (arg 0) (arg 1) (arg 2)
  | I.Keccak (r, ps) -> regs.(r) <- Khash.Keccak.digest_u256 (I.bytes_of_pieces regs ps)
  | I.Sha256 (r, ps) -> regs.(r) <- U256.of_bytes_be (Khash.Sha256.digest (I.bytes_of_pieces regs ps))
  | I.Pack (r, ps) -> regs.(r) <- U256.of_bytes_be (I.bytes_of_pieces regs ps)
  | I.Read (r, src) -> regs.(r) <- eval_read st benv regs src
  | I.Guard (op, want) ->
    let got = value_of regs op in
    if not (U256.equal got want) then
      raise
        (Guard_failed
           { index = i; detail = Fmt.str "expected %a, got %a" U256.pp want U256.pp got })
  | I.Guard_size (op, n) ->
    let got = U256.byte_size (value_of regs op) in
    if got <> n then
      raise (Guard_failed { index = i; detail = Fmt.str "expected size %d, got %d" n got })
  | I.Guard_warm (key, want) ->
    let got = warm key in
    if got <> want then
      raise
        (Guard_failed { index = i; detail = Fmt.str "expected warm=%b, got %b" want got })

let apply_write st regs logs w =
  match w with
  | I.W_storage (addr, key, v) -> Statedb.set_storage st addr key (value_of regs v)
  | I.W_storage_dyn (addr, key, v) ->
    Statedb.set_storage st addr (value_of regs key) (value_of regs v)
  | I.W_balance_set (a, v) ->
    Statedb.set_balance st (Address.of_u256 (value_of regs a)) (value_of regs v)
  | I.W_balance_add (a, v) ->
    let addr = Address.of_u256 (value_of regs a) in
    Statedb.set_balance st addr (U256.add (Statedb.get_balance st addr) (value_of regs v))
  | I.W_balance_sub (a, v) ->
    let addr = Address.of_u256 (value_of regs a) in
    Statedb.set_balance st addr (U256.sub (Statedb.get_balance st addr) (value_of regs v))
  | I.W_nonce_set (addr, n) -> Statedb.set_nonce st addr n
  | I.W_nonce_dyn (a, n) ->
    Statedb.set_nonce st
      (Address.of_u256 (value_of regs a))
      (match U256.to_int_opt (value_of regs n) with Some v -> v | None -> 0)
  | I.W_code (addr, ps) -> Statedb.set_code st addr (I.bytes_of_pieces regs ps)
  | I.W_log (addr, topics, data) ->
    logs :=
      { Evm.Env.log_address = addr;
        topics = List.map (value_of regs) topics;
        log_data = I.bytes_of_pieces regs data }
      :: !logs

let run ?spec ?(prewarm = []) (p : I.path) st benv (tx : Evm.Env.tx) : outcome =
  let spec = match spec with Some s -> s | None -> !Spec.current in
  if p.fork <> spec.Spec.id then
    Violated
      {
        index = -1;
        detail =
          Fmt.str "fork mismatch: path built under spec %d, replaying under %d" p.fork
            spec.Spec.id;
      }
  else
  let warm = Evm.Processor.entry_warm tx prewarm in
  let regs = Array.make (max p.reg_count 1) U256.zero in
  I.bind_inputs ~spec tx p.inputs regs;
  match Array.iteri (step ~warm st benv regs) p.instrs with
  | exception Guard_failed v -> Violated v
  | () ->
    let sender_balance_before = Statedb.get_balance st tx.Evm.Env.sender in
    let sender_nonce_before = Statedb.get_nonce st tx.Evm.Env.sender in
    let logs = ref [] in
    List.iter (apply_write st regs logs) p.writes;
    let gas_used =
      match p.gas_used_src with
      | None -> p.gas_used
      | Some op -> (
        match U256.to_int_opt (match op with I.Const v -> v | I.Reg r -> regs.(r)) with
        | Some g -> g
        | None -> p.gas_used)
    in
    Replayed
      {
        Evm.Processor.status = p.status;
        gas_used;
        gas_refund = p.gas_refund;
        output = I.bytes_of_pieces regs p.output;
        logs = List.rev !logs;
        contract_address = Evm.Processor.created_address tx p.status;
        sender_balance_before;
        sender_nonce_before;
      }
