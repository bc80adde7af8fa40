(** Execution environments: block header view, transaction, message. *)

open State

type block_env = {
  coinbase : Address.t;
  timestamp : int64;  (** seconds, miner's local clock *)
  number : int64;
  difficulty : U256.t;
  gas_limit : int;
  chain_id : int;
  block_hash : int64 -> U256.t;  (** hash of a recent block number *)
}

(** A signed transaction as it travels the network.  [to_] of [None] is
    contract creation. *)
type tx = {
  sender : Address.t;
  to_ : Address.t option;
  nonce : int;
  value : U256.t;
  data : string;
  gas_limit : int;
  gas_price : U256.t;
}

let tx_hash (t : tx) =
  let body =
    Rlp.List
      [ Rlp.Str (Address.to_bytes t.sender);
        Rlp.Str (match t.to_ with Some a -> Address.to_bytes a | None -> "");
        Rlp.encode_int t.nonce; Rlp.Str (U256.to_bytes_be t.value); Rlp.Str t.data;
        Rlp.encode_int t.gas_limit; Rlp.Str (U256.to_bytes_be t.gas_price) ]
  in
  Khash.Keccak.digest (Rlp.encode body)

type log = { log_address : Address.t; topics : U256.t list; log_data : string }

let pp_log ppf l =
  Fmt.pf ppf "log{%a topics=%a data=%d bytes}" Address.pp l.log_address (Fmt.list U256.pp)
    l.topics (String.length l.log_data)

let log_equal a b =
  Address.equal a.log_address b.log_address
  && List.length a.topics = List.length b.topics
  && List.for_all2 U256.equal a.topics b.topics
  && String.equal a.log_data b.log_data
