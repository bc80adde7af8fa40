(** Execution environments: the block-header view a transaction executes
    against (the context whose unpredictability motivates Forerunner),
    transactions, and logs. *)

open State

type block_env = {
  coinbase : Address.t;  (** the winning miner — probabilistic *)
  timestamp : int64;  (** the miner's local clock, seconds *)
  number : int64;
  difficulty : U256.t;
  gas_limit : int;
  chain_id : int;
  block_hash : int64 -> U256.t;  (** hashes of recent blocks *)
}

(** A signed transaction as it travels the network; [to_ = None] is contract
    creation. *)
type tx = {
  sender : Address.t;
  to_ : Address.t option;
  nonce : int;
  value : U256.t;
  data : string;
  gas_limit : int;
  gas_price : U256.t;
}

val tx_hash : tx -> string
(** Keccak-256 of the RLP-encoded transaction (its network identity).
    Counted on the Obs counter [evm.tx_hashes]: compute it once per
    transaction and carry it. *)

type log = { log_address : Address.t; topics : U256.t list; log_data : string }

val pp_log : Format.formatter -> log -> unit
val log_equal : log -> log -> bool
