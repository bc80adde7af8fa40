(** What the paper's recorder captures (§5.1): everything an Ethereum node
    observes, with precise timings — pending transactions as they are heard
    and blocks (including temporary-fork blocks) as they arrive.  A
    recording replays deterministically, so the same traffic can be re-run
    under different execution policies. *)

type obs_event =
  | Heard of float * Evm.Env.tx  (** pending transaction heard at sim time *)
  | Block of float * Chain.Block.t  (** block received at sim time *)
  | Tick of float
      (** periodic idle point (speculation budget boundary): replay may
          collect finished speculation work here, between deliveries *)

type t = {
  events : obs_event array;  (** time-ordered observer feed *)
  backend : State.Statedb.Backend.t;
      (** the shared node store — the emulator's "copy of the local
          blockchain database" *)
  genesis_root : string;
  genesis_hash : string;  (** parent hash of block 1 *)
  n_blocks : int;  (** canonical blocks *)
  n_fork_blocks : int;  (** blocks on temporary forks (paper: ~8.4%) *)
  n_txs : int;  (** transactions packed into canonical blocks *)
  canonical : (string, unit) Hashtbl.t;  (** canonical block hashes *)
  submit_times : (string, float) Hashtbl.t;  (** tx hash -> submission time *)
  tx_kinds : (string, Workload.Gen.kind) Hashtbl.t;
}

val block_hash : int64 -> U256.t
(** The recorded chain's BLOCKHASH rule: block [n] hashes to [n].  The
    miner, the replay and the predictor all use this one function, so a
    replayed block reaches the miner's header root. *)

val event_time : obs_event -> float
val is_canonical : t -> Chain.Block.t -> bool

val heard_stats : t -> int * int * float list
(** [(total, heard, delays)] over canonical blocks: packed transactions, how
    many the observer heard first, and the hear-to-execution delays
    (Fig. 11's samples). *)
