(** The Forerunner node / emulator: replays a recorded observer feed under
    an execution policy, measuring every transaction's critical-path
    execution time and validating every block's state root (paper §5.2).

    Speculation (prediction, pre-execution, AP synthesis, prefetching)
    happens as transactions are heard and as blocks arrive, exactly like the
    live pipeline of Fig. 3; execution then uses the policy's fast path with
    an EVM fallback. *)

type policy =
  | Baseline  (** plain EVM execution, per-block StateDB with cold caches *)
  | Forerunner  (** constraint-based APs + memoization + prefetch *)
  | Perfect_match  (** traditional speculation, single predicted future *)
  | Perfect_multi  (** perfect matching over all predicted futures *)

val policy_name : policy -> string

type outcome =
  | O_unheard  (** not heard before its block arrived *)
  | O_missed  (** heard, but no usable AP / constraints unsatisfied *)
  | O_imperfect  (** AP hit; context differed from every speculated one *)
  | O_perfect  (** AP hit; context identical to a speculated one *)

type tx_record = {
  hash : string;
  kind : Workload.Gen.kind option;
  gas_used : int;
  heard : bool;
  outcome : outcome;
  exec_ns : int;  (** measured critical-path time for this transaction *)
  instrs_executed : int;
  instrs_skipped : int;  (** skipped via memoization shortcuts *)
  ap_paths : int;
  ap_futures : int;
  ap_contexts : int;
  ap_shortcuts : int;
  block_number : int64;
  canonical : bool;  (** executed as part of the canonical chain *)
}

type block_record = {
  number : int64;
  n_txs : int;
  gas_used : int;
  gas_limit : int;
  root_ok : bool;  (** recomputed state root matched the header *)
  canonical : bool;
  exec_ns : int;
}

type result = {
  policy : policy;
  txs : tx_record list;  (** execution order, side-chain blocks included *)
  blocks : block_record list;
  spec_total_ns : int;  (** off-critical-path speculation time *)
  spec_base_exec_ns : int;  (** plain-execution share of speculation *)
  spec_contexts : int;
  spec_build_errors : int;
  reorgs : int;  (** head switches onto a previously non-head branch *)
  fork_blocks : int;  (** temporary-fork blocks processed *)
  synth : Speculator.synth_acc;  (** summed per-path synthesis statistics *)
  sched : Sched.stats;  (** speculation scheduler accounting *)
  apstore : Apstore.stats option;
      (** template store accounting; [Some _] iff the store was enabled *)
}

type config = {
  max_contexts_initial : int;  (** futures pre-executed on first hearing *)
  max_contexts_respec : int;  (** futures per re-speculation *)
  max_respec_per_block : int;  (** pending txs re-speculated per new block *)
  validate_hits : bool;  (** cross-check every AP hit against the EVM *)
  use_memos : bool;  (** ablation: disable memoization shortcuts *)
  prefetch : bool;  (** ablation: disable StateDB warming *)
  seed : int;
  jobs : int;
      (** domains a speculation batch runs on; 1 (the default) runs every
          speculation inline at submission — the sequential pipeline *)
  use_apstore : bool;
      (** enable the shared template store (lib/apstore, DESIGN.md §13):
          speculation also builds input-lifted template APs, published
          once per call shape; execution serves them to structurally
          equivalent transactions that have no usable per-tx AP (off by
          default so the classic pipeline's outcomes are unchanged) *)
}

val default_config : config

val single_future_config : config
(** The traditional one-prediction pipeline (multi-future ablation). *)

val is_speculative : policy -> bool

val replay : ?config:config -> policy:policy -> Netsim.Record.t -> result
(** Replay a recording under [policy].
    @raise Invalid_argument if any recomputed state root disagrees with a
    block header, or (with [validate_hits]) if an AP hit diverges from the
    EVM — either would be a correctness bug, never expected. *)
