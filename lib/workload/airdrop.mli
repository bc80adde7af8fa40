(** Airdrop-storm traffic for the lib/apstore template cache: many distinct
    senders each calling [transfer] on one ERC-20 contract, with calldata
    shaped so every transaction in the storm shares a single template key
    (constant length, selector, value zeroness, nonzero branch-relevant
    amount word) while sender, recipient, amount, nonce, gas price and gas
    limit all vary — the gas fields ride the lifted input registers, and
    a transfer's exact gas envelope lets one template serve every limit
    level. *)

open State

type t

val create : ?n_senders:int -> seed:int -> token:Address.t -> unit -> t
(** Senders are deterministic [Address.of_int]-shaped accounts (base
    [0x500000], disjoint from [Population]'s users/observers). *)

val gas_limit_levels : int array
(** The heterogeneous per-transaction limits {!tx} draws from, ascending. *)

val genesis : t -> Statedb.Backend.t -> string
(** Standalone genesis: install the ERC-20 at [token], fund every sender
    with ETH and tokens; returns the committed root. *)

val fund : t -> Statedb.t -> unit
(** Seed the senders (ETH + token balances) into an existing uncommitted
    state — composes with [Population.genesis]. *)

val tx : t -> Evm.Env.tx
(** The next storm transaction: round-robin sender, fresh all-nonzero-byte
    recipient, fresh two-nonzero-byte amount, correct per-sender nonce. *)
