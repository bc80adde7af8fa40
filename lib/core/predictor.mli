(** The multi-future predictor (paper §4.4): next-block prediction plus
    context construction.

    Block metadata is predicted from simple chain statistics (recent
    intervals, miner frequencies); transaction context is predicted by
    grouping the pending transactions that can interfere with a target
    (same contract, or same sender — where lower nonces {e must} precede)
    and enumerating plausible orderings, erring on the side of recall. *)

type pending = Chain.Packer.candidate = { tx : Evm.Env.tx; hash : string; heard_at : float }
(** A heard pending transaction: the miners' pool entry, shared with
    {!Chain.Packer}. *)

type t

val create : seed:int -> t

val observe_block : t -> Chain.Block.t -> unit
(** Feed a chain head to the statistics (intervals, coinbase frequencies). *)

val mean_interval : t -> int
(** Average observed block interval in seconds (13 before any data). *)

val top_coinbases : t -> n:int -> State.Address.t list
(** Most frequently observed miners, descending. *)

val predict_envs : t -> n:int -> Evm.Env.block_env list
(** Up to [n] predicted next-block environments, most likely first:
    timestamp ladders crossed with probable miners. *)

val dependency_group :
  pool:pending list -> tx_hash:string -> Evm.Env.tx -> pending list * pending list
(** [(required, optional)]: same-sender lower-nonce transactions that must
    precede the target, and higher-or-tied-priced interferers that might. *)

val orderings :
  t -> required:pending list -> optional:pending list -> n:int -> pending list list
(** Up to [n] deduplicated orderings of the transactions that may execute
    before the target (price-sorted, empty, and random shuffles), each
    prefixed with the required transactions in nonce order.  The entries
    keep their hashes, so callers never re-hash a context. *)

val contexts :
  t ->
  pool:pending list ->
  max_contexts:int ->
  tx_hash:string ->
  Evm.Env.tx ->
  (Evm.Env.block_env * pending list) list
(** The future contexts to pre-execute a transaction in: predicted
    environments crossed with predicted orderings, capped. *)
