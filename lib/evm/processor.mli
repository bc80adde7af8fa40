(** Transaction-level state transition: validity checks, gas purchase,
    message execution, refund and the miner-fee payment — the unit of work
    Forerunner accelerates. *)

open State

type status =
  | Success
  | Reverted  (** execution failed or reverted; gas consumed, no effects *)
  | Invalid of string  (** rejected before execution; no state change *)

type receipt = {
  status : status;
  gas_used : int;
  gas_refund : int;
      (** raw SSTORE-clear refund counter before the cap ([gas_used] is
          already net of the capped refund); 0 for invalid transactions,
          refund-free specs and failed frames.  The S-EVM template builder
          re-derives a served transaction's refund from it. *)
  output : string;  (** return or revert data *)
  logs : Env.log list;
  contract_address : Address.t option;  (** for creations *)
  sender_balance_before : U256.t;
  sender_nonce_before : int;
}

val status_equal : status -> status -> bool
val pp_status : Format.formatter -> status -> unit

val created_address : Env.tx -> status -> Address.t option
(** The [contract_address] {!execute_tx} reports: the creation address
    derived from the sender and nonce for a successful creation, [None]
    otherwise.  Replays that skip the creation frame (AP and path replays)
    fill their receipts from it. *)

val receipt_diffs : receipt -> receipt -> (string * string) list
(** The one receipt comparator: each field that differs between a
    reference receipt and a replayed one, as [(field, "reference vs got")],
    over status, gas_used, output, logs, contract_address,
    sender_balance_before and sender_nonce_before; [] when they agree.
    [gas_refund] is left out: it is builder input, not an observable
    result. *)

val upfront_cost : Env.tx -> U256.t
(** [gas_limit * gas_price + value] — what the sender must be able to pay. *)

val check_validity : ?spec:Spec.t -> Statedb.t -> Env.tx -> (int, string) result
(** Nonce, funds and intrinsic-gas checks; [Ok intrinsic_gas] on success.
    This is what a miner runs before packing.  Intrinsic gas uses the
    spec's calldata pricing ([?spec] defaults to [!Spec.current]). *)

val entry_warm :
  Env.tx -> (Address.t * U256.t option) list -> Address.t * U256.t option -> bool
(** [entry_warm tx prewarm key]: whether [key] is warm on transaction entry
    under an access-list spec — the sender, the call target, or a [prewarm]
    entry.  Shared by the processor (seeding the interpreter), the S-EVM
    builder (expected warmth-guard bools) and replay (evaluating them), so
    the three can never disagree on the initial access-list state. *)

val execute_tx :
  ?engine:Interp.engine ->
  ?spec:Spec.t ->
  ?prewarm:(Address.t * U256.t option) list ->
  ?trace:Trace.sink ->
  Statedb.t ->
  Env.block_env ->
  Env.tx ->
  receipt
(** Execute [tx] against [st] (journaled, not committed).  With [trace], the
    instrumented EVM reports every executed instruction — the speculator's
    input.  [engine] defaults to [Interp.Decoded]; [Interp.Legacy]
    selects the match-dispatch reference engine (test-only).  [?spec]
    defaults to [!Spec.current]; under access-list specs the warm sets are
    seeded with the sender, target and [?prewarm] (an EIP-2930-style hint,
    uncharged), and the capped SSTORE-clear refund is applied before the
    unused-gas return. *)
