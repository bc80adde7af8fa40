(** The transaction execution accelerator: runs an Accelerated Program
    against the actual context on the critical path (paper §4.1).

    Guard nodes check constraints and case-branch between merged futures;
    memoization shortcuts skip whole blocks when register inputs repeat
    speculation-time values.  A {!Violation} leaves the state untouched
    (writes are scheduled after every guard), so callers fall back to plain
    EVM execution with nothing to roll back. *)

type stats = {
  mutable executed : int;  (** S-EVM instructions actually run *)
  mutable skipped : int;  (** instructions bypassed by shortcuts *)
  mutable guards : int;  (** guard nodes evaluated *)
  mutable memo_hits : int;  (** shortcut matches *)
}

type outcome = Hit of Evm.Processor.receipt * stats | Violation

val miscompile_add_for_tests : bool ref
(** Test-only fault injection: when set, every [C_add] the executor runs
    returns [a + b + 1].  The conformance fuzzer's mutation smoke test
    flips this to prove its oracle detects a miscompiled AP; production
    code must leave it false. *)

val compute : Sevm.Ir.compute_op -> U256.t array -> U256.t
(** The executor's arithmetic: [Sevm.Ir.eval_compute] plus the fault
    injection above.  The static verifier (lib/analysis) replays memo
    segments through this same function, so a miscompiled executor
    disagrees with memo values recorded from the honest trace and is
    rejected before anything runs. *)

val eval_read :
  State.Statedb.t -> Evm.Env.block_env -> U256.t array -> Sevm.Ir.read_src -> U256.t
(** Evaluate one context read against the actual state and block
    environment (shared with the perfect-match policy). *)

val apply_writes :
  State.Statedb.t -> U256.t array -> Sevm.Ir.write list -> Evm.Env.log list
(** Commit a deferred write set with the given register file; returns the
    logs it emitted. *)

val bind_inputs : spec:Spec.t -> Program.t -> Evm.Env.tx -> U256.t array
(** A fresh register file for running the program on behalf of [tx], with
    the template's input registers ([Program.t.inputs]) pre-seeded from the
    transaction's own fields (lib/apstore's bind step); [spec] resolves the
    fork-dependent gas inputs ([In_intrinsic_gas] and friends).  {!execute}
    calls this itself; exposed for tests and the template oracle. *)

val execute :
  ?use_memos:bool ->
  ?spec:Spec.t ->
  ?prewarm:(State.Address.t * U256.t option) list ->
  Program.t ->
  State.Statedb.t ->
  Evm.Env.block_env ->
  Evm.Env.tx ->
  outcome
(** Run the AP for [tx] in the actual context.  [use_memos:false] disables
    memoization shortcuts (ablation).  [?spec] defaults to [!Spec.current];
    a program whose paths were built under a different fork id is a
    {!Violation} before anything runs.  [?prewarm] is the actual entry
    access list the transaction executes with — warmth branches
    ([Program.Branch_warm]) are evaluated against
    [Evm.Processor.entry_warm tx prewarm]. *)

val execute_or_fallback :
  ?use_memos:bool ->
  ?spec:Spec.t ->
  ?prewarm:(State.Address.t * U256.t option) list ->
  Program.t ->
  State.Statedb.t ->
  Evm.Env.block_env ->
  Evm.Env.tx ->
  Evm.Processor.receipt * stats option
(** {!execute}, falling back to the EVM interpreter on a {!Violation} (which
    left the state untouched).  The stats are [None] when the interpreter
    ran. *)
