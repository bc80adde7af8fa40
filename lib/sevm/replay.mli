(** Linear replay of a single synthesized S-EVM path.

    This is the "trace build + replay" leg of the conformance oracle (the
    scenario runner's Sevm lane): it walks [Ir.path.instrs] in order
    against a concrete state and block environment, checks every guard,
    and — only if all guards held — applies the deferred write set and
    rebuilds the receipt.

    It deliberately shares no evaluation code with [Ap.Exec]: the point is an
    independent re-implementation of the S-EVM semantics, so a bug in the AP
    executor and a bug in the replayer would have to coincide to go
    unnoticed.  Replay is all it does: parallel block apply takes its
    read/write sets from the statedb touch log and journal, never from
    a path (DESIGN.md §10). *)

open State

type violation = {
  index : int;  (** index into [path.instrs] of the failing guard *)
  detail : string;
}

type outcome =
  | Replayed of Evm.Processor.receipt
  | Violated of violation
      (** a guard failed; no state was written (writes are deferred) *)

val run :
  ?spec:Spec.t ->
  ?prewarm:(Address.t * U256.t option) list ->
  Ir.path ->
  Statedb.t ->
  Evm.Env.block_env ->
  Evm.Env.tx ->
  outcome
(** [run path st benv tx] replays [path] against [st].  On [Replayed r],
    the deferred writes have been applied to [st] and [r] mirrors what
    [Evm.Processor.execute_tx] would have returned, a creation's
    [contract_address] included ({!Evm.Processor.created_address}).

    [?spec] defaults to [!Spec.current]; a path built under a different
    fork id is [Violated] at [index = -1] before any instruction runs.
    [?prewarm] must match what the replayed transaction would execute
    with: warmth guards are evaluated against
    [Evm.Processor.entry_warm tx prewarm], so a path specialized under a
    warm access-list entry falls back cleanly when replayed cold. *)
