(** Bytecode abstract interpretation (DESIGN.md §14).

    A per-code-hash static analysis, run on first use and cached
    alongside the {!Evm.Decode} artifact under the same key (the
    account's stored code hash × spec id).  Three cooperating domains
    over the decoded instruction stream:

    - {b CFG recovery}: basic blocks split at the decoder's leader bitmap
      ({!Evm.Decode.program.leaders}, the same bitmap that certifies
      PUSH-PUSH-op fusion), resolved-vs-escaping JUMP targets,
      reachability.
    - {b Stack constant propagation}: an abstract stack of
      constants/taints, joined per block with a visit-count widening cap.
      Resolves [PUSH;JUMP] targets and storage keys.
    - {b Access footprint}: an over-approximation of every storage slot,
      balance/code/nonce touch and call target an execution of the code
      can perform, split into read and write sets, plus which calldata
      words flow into control decisions, whether the selector bytes
      (calldata[0..3]) are ever read, and whether the GAS opcode is
      reachable.

    Soundness contract (defended by the fuzz oracle and [forerunner
    analyze]): for every execution, the concretized footprint
    ({!predict_tx}) covers the runtime statedb touch log and the written
    change set.  The analysis is conservative: anything it cannot bound
    (escaping jumps under an unknown stack, CREATE, SELFDESTRUCT, calls
    to unresolved targets) collapses to the wild footprint. *)

(** Where an address-valued operand points, relative to one frame. *)
type target =
  | T_const of State.Address.t
  | T_self  (** the executing contract *)
  | T_caller  (** the frame's caller *)
  | T_top  (** statically unknown *)

type call_site = {
  c_target : target;
  c_value_maybe : bool;  (** the call may transfer value *)
  c_keeps_self : bool;  (** CALLCODE/DELEGATECALL: child runs in our storage *)
}

(** The per-code facts, relative to an arbitrary executing frame. *)
type facts = {
  f_hash : string;  (** code hash the facts were computed for *)
  f_spec : int;  (** spec id (opcode availability is fork-dependent) *)
  f_wild : bool;  (** analysis gave up: footprint is everything *)
  f_slots_r : U256.t list;  (** constant self-storage keys read *)
  f_slots_r_wild : bool;  (** some read key was not a constant *)
  f_slots_w : U256.t list;  (** constant self-storage keys written *)
  f_slots_w_wild : bool;
  f_bal_reads : target list;  (** BALANCE/SELFBALANCE targets *)
  f_code_reads : target list;  (** EXTCODESIZE/-COPY/-HASH targets *)
  f_calls : call_site list;  (** CALL-family sites *)
  f_call_top : bool;  (** some call target is statically unknown *)
  f_cf_words : int;  (** bitmask: calldata word k flows into a JUMPI *)
  f_cf_top : bool;  (** control flow may depend on any calldata word *)
  f_reads_selector : bool;  (** calldata bytes 0..3 may be read *)
  f_uses_gas : bool;  (** the GAS opcode may execute (self code only) *)
  f_n_blocks : int;  (** basic blocks discovered *)
  f_n_reachable : int;  (** blocks reachable from entry *)
  f_resolved_jumps : int;  (** JUMP/JUMPI sites with constant targets *)
  f_escaping_jumps : int;  (** sites whose target stayed symbolic *)
}

val analyze : spec:Spec.t -> Evm.Decode.program -> facts
(** Run the abstract interpreter on a decoded program (no caching). *)

val facts_for : spec:Spec.t -> hash:string -> string -> facts
(** Cached analysis of raw code whose keccak256 is [hash] (the account's
    stored code hash), keyed and bounded like the decode cache; counted
    through [bca.cache.{hits,misses,evictions}].  Domain-safe; a racing
    double-analysis is benign.  When a narrowing is seeded
    ({!seeded_narrowing}) the cache is bypassed in both directions. *)

val cache_size : unit -> int
val clear_cache : unit -> unit

(** {1 Per-transaction concretization} *)

type prediction = {
  p_wild : bool;
  p_r_accounts : State.Address.t list;  (** accounts read (balance/nonce/existence) *)
  p_w_accounts : State.Address.t list;  (** accounts whose balance/nonce may be written *)
  p_codes : State.Address.t list;  (** accounts whose code may be read *)
  p_r_slots : (State.Address.t * U256.t) list;
  p_w_slots : (State.Address.t * U256.t) list;
  p_r_slot_wild : State.Address.t list;  (** any slot of these accounts may be read *)
  p_w_slot_wild : State.Address.t list;
}

val predict_tx :
  spec:Spec.t ->
  coinbase:State.Address.t ->
  State.Statedb.t ->
  Evm.Env.tx ->
  prediction
(** Concretize the static footprint for one transaction against a
    state: resolve [T_self]/[T_caller] against the call frame, recurse
    into constant-target callees (depth-capped, cycle-safe), reading each
    callee's code and stored code hash from the state (codeless accounts
    and precompiles end the chase), and fold in the processor's own
    touches (sender, target, coinbase, intrinsic reads).  Creations and
    unresolved call targets yield the wild prediction. *)

val uses_gas_deep : spec:Spec.t -> State.Statedb.t -> State.Address.t -> bool
(** May any code transitively reachable from a message call to this
    address execute the GAS opcode?  Chases constant-target call edges
    through the code stored in the state (depth-capped); unresolved
    targets, wild analyses and the depth cap all answer [true].
    lib/apstore keeps the gas-limit and calldata-intrinsic key components
    pinned exactly for such targets, because the S-EVM builder bakes GAS
    pushes as unguarded constants. *)

val covers_touch : prediction -> State.Statedb.touch -> bool
(** Soundness oracle, read side: is a runtime touch inside the footprint? *)

val covers_change : prediction -> State.Statedb.change -> bool
(** Soundness oracle, write side: is a committed change inside the
    predicted write set? *)

(** The conflict set of parallel apply (DESIGN.md §10): the one rule for
    which locations meet.  The static pre-partitioner folds predictions
    into one union; the consensus-order commit loop folds committed change
    records into another and tests each speculation's touch log against
    it. *)
module Union : sig
  type t

  val create : unit -> t

  val overlaps : t -> prediction -> bool
  (** Conservative may-conflict test against every prediction {!add}ed so
      far: true when the prediction is wild, or when its writes meet their
      reads or writes, or its reads meet their writes (accounts, exact
      slots, or slot wildcards against any slot of the same account).
      O(footprint of the prediction). *)

  val add : t -> prediction -> unit
  (** Fold a prediction into the union.  A wild prediction is not folded
      in: one opaque transaction must not make every later one conflict. *)

  val add_changes : t -> coinbase:State.Address.t -> State.Statedb.change list -> unit
  (** Fold committed writes into the union: a balance, nonce, creation or
      destruct writes the account; a code write or a destruct writes its
      code; each written slot is an exact slot write, and a destruct is a
      write of every slot of the account.  The [coinbase] record is
      skipped: fee credits commute. *)

  val reads_written : t -> State.Statedb.touch list -> bool
  (** Does any of these reads meet a write {!add_changes} folded in?  An
      account read meets a write of the account, a code read a write of
      its code, a slot read a write of that slot or a destruct of its
      owner. *)
end

(** {1 Seeded narrowings (negative testing / [forerunner analyze --mutate])}

    Each narrowing makes exactly one domain unsound so the soundness
    oracle must catch it: [N_cfg] drops JUMPI taken edges, [N_stack]
    corrupts constant propagation (DUP duplicates as zero), [N_footprint]
    ignores SSTORE contributions, [N_calldata] claims calldata never
    reaches control flow nor the selector. *)

type narrowing = N_cfg | N_stack | N_footprint | N_calldata

val seeded_narrowing : narrowing option ref

val narrowing_name : narrowing -> string
