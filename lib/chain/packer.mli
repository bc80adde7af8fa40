(** Miner packing policy (paper §4.4): gas-price-descending order with
    per-miner random tie-breaking (geth orders same-price transactions
    randomly, paper footnote 8), optional self-priority, per-sender nonce
    sequencing with deferral, a balance floor, and the block gas limit. *)

type candidate = { tx : Evm.Env.tx; hash : string; heard_at : float }
(** A heard pending transaction: the transaction, its hash (computed once,
    by whoever first handles the transaction) and when this pool heard it.
    A miner's pool and the node's pending set ([Core.Predictor.pending])
    are lists of it. *)

type policy = {
  self : State.Address.t option;  (** miner's own sender to prioritize *)
  gas_limit : int;
  rng : Random.State.t;  (** the miner's private tie-break randomness *)
}

val order : policy -> candidate list -> candidate list
(** Candidate ordering before inclusion checks: self first, then price
    descending, ties shuffled by the miner's rng. *)

val pack :
  policy ->
  next_nonce:(State.Address.t -> int) ->
  spendable:(State.Address.t -> U256.t) ->
  candidate list ->
  candidate list
(** Fill a block: the packed candidates in block order.  [next_nonce] and
    [spendable] reflect the parent state; a transaction whose nonce is ahead
    of its sender's sequence is deferred until its predecessors are
    included.  The walk stops once the gas left is below the smallest gas
    limit among the candidates, so a full block does not look at the rest
    of the backlog. *)
