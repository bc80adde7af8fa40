(* Traditional speculative execution, for the paper's baselines (Table 2):
   a speculated execution may be used only when the actual context matches
   the speculated one perfectly — operationally, when every context read
   returns exactly the value seen during speculation.  Then the memoized
   results commit verbatim; otherwise the transaction re-executes in full.

   Reads determine everything else (the transaction body is fixed), so
   checking reads is checking the whole context.

   One read is exempt: the COINBASE read that exists only to route the
   miner-fee payment.  Like geth's finalization, the fee transfer is applied
   against the actual coinbase at commit time; it is bookkeeping, not
   context (paper footnote 7 omits miner-balance accounting from read/write
   sets for the same reason). *)

open State
module I = Sevm.Ir

(* Registers whose only role is addressing a fee-style balance delta. *)
let fee_only_reg (path : I.path) r =
  (not (Array.exists (fun ins -> List.mem r (I.instr_uses ins)) path.instrs))
  && (not (List.exists (fun p -> List.mem r (I.piece_regs p)) path.output))
  && List.for_all
       (fun w ->
         match w with
         | I.W_balance_add (_, I.Reg r') when r' = r -> false
         | I.W_balance_add (_, (I.Reg _ | I.Const _)) -> true
         | other -> not (List.mem r (I.write_uses other)))
       path.writes

let is_coinbase_read = function I.R_coinbase -> true | _ -> false

(* Walk the reads of [path] against the actual context.  Returns a register
   file with actual values for exempt reads when everything else matches. *)
let check_reads (path : I.path) st benv : U256.t array option =
  let regs = Array.copy path.reg_values in
  let ok = ref true in
  Array.iter
    (fun ins ->
      match ins with
      | I.Read (r, src) when !ok ->
        let actual = Ap.Exec.eval_read st benv regs src in
        if is_coinbase_read src && fee_only_reg path r then regs.(r) <- actual
        else if not (U256.equal actual path.reg_values.(r)) then ok := false
      (* Guard_warm is not a context read: entry warmth is a function of the
         transaction and its prewarm list, and this baseline runs
         speculation and commit with the same (empty) prewarm, so the
         constraint holds whenever it held during speculation. *)
      | I.Read _ | I.Compute _ | I.Keccak _ | I.Sha256 _ | I.Pack _ | I.Guard _
      | I.Guard_size _ | I.Guard_warm _ -> ())
    path.instrs;
  if !ok then Some regs else None

(* Try to commit [path] against the actual context.  Returns the receipt on
   a perfect match. *)
let try_path (path : I.path) st (benv : Evm.Env.block_env) (tx : Evm.Env.tx) :
    Evm.Processor.receipt option =
  match check_reads path st benv with
  | None -> None
  | Some regs ->
    let sender_balance_before = Statedb.get_balance st tx.sender in
    let sender_nonce_before = Statedb.get_nonce st tx.sender in
    let logs = Ap.Exec.apply_writes st regs path.writes in
    Some
      {
        Evm.Processor.status = path.status;
        gas_used = path.gas_used;
        gas_refund = path.gas_refund;
        output = I.bytes_of_pieces regs path.output;
        logs;
        contract_address = Evm.Processor.created_address tx path.status;
        sender_balance_before;
        sender_nonce_before;
      }

(* Multi-future perfect matching: first matching speculated context wins. *)
let try_paths paths st benv tx =
  let rec go = function
    | [] -> None
    | p :: rest -> ( match try_path p st benv tx with Some r -> Some r | None -> go rest)
  in
  go paths

(* Whether the actual context is identical to one speculated for [path] —
   used to split AP hits into perfect vs imperfect (Table 3). *)
let context_matches (path : I.path) st benv = check_reads path st benv <> None
