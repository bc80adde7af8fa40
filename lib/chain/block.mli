(** Blocks: header plus ordered transaction list.  The header commits to the
    post-state root — how every node (and the paper's §5.2 validation)
    checks that it executed a block correctly. *)

open State

type header = {
  number : int64;
  parent_hash : string;
  coinbase : Address.t;
  timestamp : int64;  (** the miner's local clock, seconds *)
  gas_limit : int;
  difficulty : U256.t;
  state_root : string;  (** world-state root after executing this block *)
  tx_root : string;  (** commitment to the transaction list *)
}

type t = { header : header; txs : Evm.Env.tx list }

val encode_header : header -> Rlp.item
val hash : t -> string
(** Keccak-256 of the RLP-encoded header. *)

val tx_root : string list -> string
(** The commitment to a block's transactions, from their hashes in block
    order: the digest of the concatenated hashes. *)

val gas_used_upper_bound : t -> int
(** Sum of the transactions' gas limits (the packer's budget). *)

val pp : Format.formatter -> t -> unit
