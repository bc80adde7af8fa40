(** A template-level AP cache shared across transactions and users
    (DESIGN.md §13).

    Per-transaction Accelerated Programs bake the speculated transaction's
    own fields — sender, value, nonce, gas price, calldata — into the
    specialized code, so they serve exactly one transaction.  A {e
    template} AP (built with [Sevm.Builder.build ~template:true]) promotes
    those caller-varying fields to input registers; one template serves
    every transaction with the same {e call shape} against the same
    contract code under the same fork.  This module is the bounded,
    concurrent, LRU-evicting store of such templates.

    Keys are computed by {!key_of_tx} from the transaction and the live
    state and pin exactly the fields the template builder bakes instead
    of lifting, so a key match means the template's baked shape applies.
    A key is the readable field string itself, not a digest of it: the
    target's stored code hash and address, fork id, calldata length and
    value zeroness, plus, only where the analysis says the code may depend
    on them, the gas limit with the nonzero-calldata-byte count, the
    selector, and the zeroness of each calldata word that steers a branch
    (DESIGN.md §13).

    Concurrency: every operation takes the store mutex, so the store is
    safe to consult from worker domains.  {!reserve}/{!publish}/{!abandon}
    implement single-flight compilation: of N concurrent misses on one
    key, exactly one caller is told to build; the rest coalesce and
    proceed without a template until the build is published. *)

type t

val create : ?max_entries:int -> ?max_bytes:int -> unit -> t
(** An empty store.  [max_entries] (default 512) bounds the number of
    resident templates; [max_bytes] (default 64 MiB) bounds their summed
    marshalled size estimate.  Exceeding either bound evicts the least
    recently used entries at publish time. *)

val key_of_tx : State.Statedb.t -> Spec.t -> Evm.Env.tx -> string option
(** The template cache key for [tx] against the current state, or [None]
    for shapes templates never cover: contract creations, precompile
    targets, and plain transfers to codeless accounts. *)

val find : t -> string -> Ap.Program.t option
(** Probe the store; counts a hit or miss and refreshes the entry's LRU
    stamp. *)

val reserve : t -> string -> bool
(** Single-flight gate: [true] means the caller owns the (re)build of
    [key] and must eventually {!publish} or {!abandon} it; [false] means
    the key is already resident or another caller holds the build. *)

val publish : t -> string -> Ap.Program.t -> unit
(** Install (or replace) the template for [key], releasing the
    single-flight reservation and evicting LRU entries if a bound is
    exceeded.  The program must not be mutated after publication. *)

val abandon : t -> string -> unit
(** Release a reservation without publishing (the build failed or the
    transaction was retired first). *)

val length : t -> int
val resident_bytes : t -> int

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  coalesced : int;  (** reserve calls that lost the single-flight race *)
  published : int;
  inflight : int;  (** reservations currently outstanding *)
}

val stats : t -> stats
