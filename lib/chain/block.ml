(* Blocks: header + ordered transaction list.  The header commits to the
   post-state root, which is how Forerunner's correctness is validated — a
   node that executed a block differently would compute a different root
   (paper §5.2). *)

open State

type header = {
  number : int64;
  parent_hash : string;
  coinbase : Address.t;
  timestamp : int64;
  gas_limit : int;
  difficulty : U256.t;
  state_root : string;  (** world-state root after executing this block *)
  tx_root : string;  (** commitment to the transaction list *)
}

type t = { header : header; txs : Evm.Env.tx list }

let encode_header h =
  Rlp.List
    [ Rlp.encode_int (Int64.to_int h.number); Rlp.Str h.parent_hash;
      Rlp.Str (Address.to_bytes h.coinbase); Rlp.encode_int (Int64.to_int h.timestamp);
      Rlp.encode_int h.gas_limit; Rlp.Str (U256.to_bytes_be h.difficulty);
      Rlp.Str h.state_root; Rlp.Str h.tx_root ]

let hash b = Khash.Keccak.digest (Rlp.encode (encode_header b.header))

let tx_root hashes = Khash.Keccak.digest (String.concat "" hashes)

let gas_used_upper_bound b =
  List.fold_left (fun acc (tx : Evm.Env.tx) -> acc + tx.gas_limit) 0 b.txs

let pp ppf b =
  Fmt.pf ppf "block #%Ld (%d txs, ts=%Ld, miner=%a)" b.header.number (List.length b.txs)
    b.header.timestamp Address.pp b.header.coinbase
