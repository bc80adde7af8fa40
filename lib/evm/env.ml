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

(* A word is encoded as its full 32 bytes, header 0xa0. *)
let put_word b pos v =
  Bytes.set b pos '\xa0';
  U256.blit_be v 0 b (pos + 1) 32;
  pos + 33

let obs_tx_hashes = Obs.counter "evm.tx_hashes"

(* The RLP list [sender; to; nonce; value; data; gas limit; gas price],
   sized exactly and written into one buffer. *)
let tx_hash (t : tx) =
  Obs.incr obs_tx_hashes;
  let sender = Address.to_bytes t.sender in
  let to_ = match t.to_ with Some a -> Address.to_bytes a | None -> "" in
  let payload =
    Rlp.str_size sender + Rlp.str_size to_ + Rlp.int_size t.nonce + 33 + Rlp.str_size t.data
    + Rlp.int_size t.gas_limit + 33
  in
  let b = Bytes.create (Rlp.header_len payload + payload) in
  let pos = Rlp.put_header b 0 0xc0 payload in
  let pos = Rlp.put_str b pos sender in
  let pos = Rlp.put_str b pos to_ in
  let pos = Rlp.put_int b pos t.nonce in
  let pos = put_word b pos t.value in
  let pos = Rlp.put_str b pos t.data in
  let pos = Rlp.put_int b pos t.gas_limit in
  ignore (put_word b pos t.gas_price : int);
  Khash.Keccak.digest (Bytes.unsafe_to_string b)

type log = { log_address : Address.t; topics : U256.t list; log_data : string }

let pp_log ppf l =
  Fmt.pf ppf "log{%a topics=%a data=%d bytes}" Address.pp l.log_address (Fmt.list U256.pp)
    l.topics (String.length l.log_data)

let log_equal a b =
  Address.equal a.log_address b.log_address
  && List.length a.topics = List.length b.topics
  && List.for_all2 U256.equal a.topics b.topics
  && String.equal a.log_data b.log_data
