(** The block-level state transition function: sequential reference apply
    and conflict-aware parallel apply (DESIGN.md §10). *)

open State

type block_result = {
  state_root : string;
  receipts : Evm.Processor.receipt list;
  gas_used : int;
}

val block_env_of_header :
  Block.header -> block_hash:(int64 -> U256.t) -> Evm.Env.block_env

val apply_txs :
  ?spec:Spec.t -> Statedb.t -> Evm.Env.block_env -> Evm.Env.tx list -> block_result
(** Execute the transactions in order against [st] (at the parent state)
    and commit.  Invalid transactions produce [Invalid] receipts and no
    state change — callers validating mined blocks should use
    {!apply_block}, which rejects them.  [spec] selects the hardfork rules
    (default [!Spec.current]). *)

val apply_block :
  ?spec:Spec.t -> Statedb.t -> block_hash:(int64 -> U256.t) -> Block.t -> block_result
(** {!apply_txs} on a block's transactions under its header environment.
    @raise Invalid_argument if a transaction is invalid — a correctly mined
    block never contains one. *)

(** {1 Conflict-aware parallel apply}

    Optimistic concurrency over the speculation scheduler's worker domains:
    every transaction pre-executes on a {!State.Statedb.fork} of the master
    state, which stays read-only until the speculative phase's barrier (AP
    fast path when available, interpreter otherwise) while its read set
    (statedb touches) and write set (journal-derived changes) are captured;
    commit walks consensus order, replaying each transaction's effects onto
    the master state unless its reads meet an earlier-ordered transaction's
    writes in the block's {!Bca.Union} conflict set — then it is aborted and
    rerun sequentially.  Instruments: [stf.parallel.{aborts,reruns}]
    counters and the per-block [stf.parallel.block_aborts] histogram.
    The committed state root is byte-identical to {!apply_txs}. *)

type pool
(** A reusable worker pool (wraps {!Sched.t}); one per node, shared across
    blocks.  All [apply_*_parallel] calls with one pool must come from the
    domain that created it. *)

val create_pool : jobs:int -> unit -> pool
(** [jobs = 1] spawns no domains: the speculative phase runs inline, in
    consensus order — the deterministic mode the tests pin against. *)

val shutdown_pool : pool -> unit

type par_stats = {
  par_jobs : int;
  par_txs : int;
  par_aborted : int;  (** commits aborted on a read/write conflict *)
  par_forced : int;  (** forced sequential reruns (non-commutative coinbase) *)
  par_reruns : int;  (** sequential re-executions: aborted + forced *)
  par_static_serial : int;
      (** transactions the static pre-partitioner (lib/bca) kept out of the
          speculative phase and executed in order on the master state *)
  par_ap_hits : int;  (** speculative executions through the AP fast path *)
  par_commit_ns : int;  (** wall time of the consensus-order commit loop *)
}

val apply_txs_parallel :
  pool:pool ->
  ?ap:(Evm.Env.tx -> Ap.Program.t option) ->
  ?spec:Spec.t ->
  ?static_partition:bool ->
  Statedb.t ->
  Evm.Env.block_env ->
  Evm.Env.tx list ->
  block_result * par_stats
(** Parallel counterpart of {!apply_txs}.  [st] must be freshly created or
    committed (no open journal) — the workers speculate on forks of it.
    [ap] supplies a transaction's accelerated program, if any (never
    consulted for creations); default: none, interpreter only.  [spec] is
    resolved once on the submitting domain so speculation and commit-phase
    reruns agree on the hardfork.  With [static_partition] (default on) each
    transaction's static footprint ({!Bca.predict_tx}) is concretized
    first and transactions that provably conflict with an earlier one
    skip speculation entirely, executing in consensus order at commit
    ([par_static_serial]) — a pure scheduling heuristic: the dynamic
    conflict check still guards every speculated commit and the root is
    byte-identical either way.  The same pass prefetches every predicted
    account and slot into [st], so the forks and the commit loop read them
    from its cache rather than the trie.
    @raise Invalid_argument if [st] has uncommitted state. *)
