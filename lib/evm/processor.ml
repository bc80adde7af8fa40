(* Transaction-level state transition: nonce and balance checks, gas
   purchase, message execution, refund, and the coinbase fee payment.  This
   is the unit of work Forerunner accelerates. *)

open State

type status = Success | Reverted | Invalid of string

type receipt = {
  status : status;
  gas_used : int;
  gas_refund : int;
      (** raw SSTORE-clear refund counter at the end of execution, before
          the cap — [gas_used] already has the capped refund subtracted.
          0 for invalid transactions, refund-free specs and failed frames
          (journal rollback).  The S-EVM template builder needs the raw
          counter to re-derive the refund under a served transaction's
          own intrinsic charge. *)
  output : string;
  logs : Env.log list;
  contract_address : Address.t option;  (** for creations *)
  sender_balance_before : U256.t;
  sender_nonce_before : int;
}

let status_equal a b =
  match (a, b) with
  | Success, Success | Reverted, Reverted -> true
  | Invalid x, Invalid y -> String.equal x y
  | (Success | Reverted | Invalid _), _ -> false

let pp_status ppf = function
  | Success -> Fmt.string ppf "success"
  | Reverted -> Fmt.string ppf "reverted"
  | Invalid r -> Fmt.pf ppf "invalid(%s)" r

(* The [contract_address] of a replayed receipt: an AP or path replay never
   runs the creation frame, so it derives what [execute_tx] reports from the
   sender and the (guarded) nonce. *)
let created_address (tx : Env.tx) status =
  match (tx.to_, status) with
  | None, Success -> Some (Interp.create_address tx.sender tx.nonce)
  | (None | Some _), (Success | Reverted | Invalid _) -> None

let receipt_diffs a b =
  let field name equal pp x y =
    if equal x y then None else Some (name, Fmt.str "%a vs %a" pp x pp y)
  in
  let pp_hex ppf s = Fmt.pf ppf "0x%s" (Khash.Keccak.to_hex s) in
  List.filter_map Fun.id
    [ field "status" status_equal pp_status a.status b.status;
      field "gas_used" Int.equal Fmt.int a.gas_used b.gas_used;
      field "output" String.equal pp_hex a.output b.output;
      field "logs" (List.equal Env.log_equal) (Fmt.list Env.pp_log) a.logs b.logs;
      field "contract_address" (Option.equal Address.equal)
        Fmt.(option ~none:(any "none") Address.pp) a.contract_address b.contract_address;
      field "sender_balance_before" U256.equal U256.pp a.sender_balance_before
        b.sender_balance_before;
      field "sender_nonce_before" Int.equal Fmt.int a.sender_nonce_before
        b.sender_nonce_before ]

(* Upfront cost: gas_limit * gas_price + value. *)
let upfront_cost (tx : Env.tx) =
  U256.add (U256.mul (U256.of_int tx.gas_limit) tx.gas_price) tx.value

(* Validity check against current state — what a miner runs before packing,
   and what execution re-checks. *)
let check_validity ?spec st (tx : Env.tx) =
  let spec = match spec with Some s -> s | None -> !Spec.current in
  let nonce = Statedb.get_nonce st tx.sender in
  if nonce <> tx.nonce then Error (Printf.sprintf "nonce: have %d want %d" nonce tx.nonce)
  else if U256.lt (Statedb.get_balance st tx.sender) (upfront_cost tx) then
    Error "insufficient funds"
  else begin
    let intrinsic = Spec.intrinsic_gas spec ~is_create:(tx.to_ = None) tx.data in
    if intrinsic > tx.gas_limit then Error "intrinsic gas exceeds limit" else Ok intrinsic
  end

(* The entry-warm predicate shared between the processor (seeding the
   interpreter's warm sets), the S-EVM builder (computing the expected bool
   of a warmth guard) and path/AP replay (evaluating the guard): a location
   is warm on transaction entry iff it is the sender, the call target, or
   listed in the execution hint [prewarm] (an EIP-2930-style access list,
   carried out of band — no intrinsic charge in this reproduction). *)
let entry_warm (tx : Env.tx) (prewarm : (Address.t * U256.t option) list)
    ((a, ko) : Address.t * U256.t option) =
  match ko with
  | None ->
    Address.equal a tx.sender
    || (match tx.to_ with Some t -> Address.equal a t | None -> false)
    || List.exists (fun (pa, pk) -> pk = None && Address.equal pa a) prewarm
  | Some k ->
    List.exists
      (fun (pa, pk) ->
        Address.equal pa a && match pk with Some pk -> U256.equal pk k | None -> false)
      prewarm

let obs_fork_id = Obs.gauge "spec.fork_id"

(* Execute [tx] against [st] in block environment [benv], mutating [st]
   (committed state is only advanced by the caller's [Statedb.commit]).
   [engine] defaults to [Interp.Decoded]; [Interp.Legacy] is the
   test-only reference selection the differential battery pins the
   decoded engine against. *)
let execute_tx ?engine ?spec ?(prewarm = []) ?trace st (benv : Env.block_env)
    (tx : Env.tx) : receipt =
  let spec = match spec with Some s -> s | None -> !Spec.current in
  if !Obs.enabled then Obs.set obs_fork_id (float_of_int spec.Spec.id);
  let sender_balance_before = Statedb.get_balance st tx.sender in
  let sender_nonce_before = Statedb.get_nonce st tx.sender in
  match check_validity ~spec st tx with
  | Error reason ->
    {
      status = Invalid reason;
      gas_used = 0;
      gas_refund = 0;
      output = "";
      logs = [];
      contract_address = None;
      sender_balance_before;
      sender_nonce_before;
    }
  | Ok intrinsic ->
    let ctx =
      Interp.make_ctx ?engine ~spec ?trace st benv ~origin:tx.sender ~gas_price:tx.gas_price
    in
    if spec.Spec.has_access_lists then begin
      Interp.warm_entry ctx (tx.sender, None);
      (match tx.to_ with Some t -> Interp.warm_entry ctx (t, None) | None -> ());
      List.iter (Interp.warm_entry ctx) prewarm
    end;
    (* Buy gas, bump nonce. *)
    Statedb.sub_balance st tx.sender (U256.mul (U256.of_int tx.gas_limit) tx.gas_price);
    Statedb.incr_nonce st tx.sender;
    let gas = tx.gas_limit - intrinsic in
    let result, contract_address =
      match tx.to_ with
      | Some target ->
        ( Interp.call_message ctx ~caller:tx.sender ~target ~value:tx.value ~data:tx.data
            ~gas,
          None )
      | None ->
        let r = Interp.create_message ctx ~caller:tx.sender ~value:tx.value ~initcode:tx.data ~gas in
        let addr = if r.success then Some (Address.of_bytes r.output) else None in
        (r, addr)
    in
    let gas_used = tx.gas_limit - result.gas_left in
    (* Apply the (capped) SSTORE-clear refund, then return unused gas and
       pay the miner for what remains.  The counter is 0 under refund-free
       specs and on failure (the journal rollback restores it). *)
    let refund = min ctx.refund (gas_used / spec.Spec.refund_cap_divisor) in
    let gas_used = gas_used - refund in
    Statedb.add_balance st tx.sender
      (U256.mul (U256.of_int (tx.gas_limit - gas_used)) tx.gas_price);
    Statedb.add_balance st benv.coinbase (U256.mul (U256.of_int gas_used) tx.gas_price);
    {
      status = (if result.success then Success else Reverted);
      gas_used;
      gas_refund = ctx.refund;
      output = result.output;
      logs = List.rev ctx.logs;
      contract_address;
      sender_balance_before;
      sender_nonce_before;
    }
