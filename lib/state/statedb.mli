(** The mutable, journaled view of Ethereum's world state that transaction
    execution runs against — the analogue of geth's [StateDB].

    A [Statedb.t] overlays in-memory caches on top of a committed trie root.
    Reads fall through the cache to the account / storage tries (each trie
    node load is counted by {!Trie.Db} as a disk-I/O proxy); writes go to the
    cache and a journal, so {!snapshot} / {!revert} implement the EVM's
    nested-call rollback, and {!commit} flushes dirty state into fresh trie
    roots.

    Forerunner's prefetcher warms a fresh [Statedb]'s caches ({!warm}) with
    the read set captured during speculative pre-execution, replacing
    critical-path trie walks with cache hits. *)

module Backend : sig
  type t
  (** Shared persistent storage: one trie node store plus the code store. *)

  val create : unit -> t
  val trie_db : t -> Trie.Db.t

  val io_reads : t -> int
  (** Trie node loads so far (proxy for disk reads). *)

  val reset_io : t -> unit
end

type t

type touch =
  | T_account of Address.t      (** balance / nonce / existence read *)
  | T_code of Address.t
  | T_slot of Address.t * U256.t

val create : Backend.t -> root:string -> t
(** Open the world state committed at [root] with cold caches. *)

val fork : t -> t
(** A private, journaled state over a clean parent, at the parent's
    {!root}.  The fork starts with cold caches of its own: a miss records
    its {!touch} exactly as in a {!create}d state, then copies the
    committed fields from the parent's cache, and walks the trie only when
    the parent has not cached that account (or, for a committed slot, has
    no entry for it in its committed-value map).  Serves from the parent
    count into [statedb.fork.parent_hits].  The fork only ever reads the
    parent, so any number of forks may run on worker domains at once — as
    long as nothing writes the parent during their lifetime.
    @raise Invalid_argument if the parent has an open journal. *)

val empty_root : string

val backend : t -> Backend.t

(** {1 Accounts} *)

val account_exists : t -> Address.t -> bool
val is_empty_account : t -> Address.t -> bool
(** Empty per EIP-161: zero nonce, zero balance, no code. *)

val get_balance : t -> Address.t -> U256.t
val set_balance : t -> Address.t -> U256.t -> unit
val add_balance : t -> Address.t -> U256.t -> unit
val sub_balance : t -> Address.t -> U256.t -> unit
(** @raise Invalid_argument on underflow (callers must check first). *)

val get_nonce : t -> Address.t -> int
val set_nonce : t -> Address.t -> int -> unit
val incr_nonce : t -> Address.t -> unit
val get_code : t -> Address.t -> string
val get_code_hash : t -> Address.t -> string
val set_code : t -> Address.t -> string -> unit
val self_destruct : t -> Address.t -> unit
val is_destructed : t -> Address.t -> bool

(** {1 Storage} *)

val get_storage : t -> Address.t -> U256.t -> U256.t
val set_storage : t -> Address.t -> U256.t -> U256.t -> unit
val get_committed_storage : t -> Address.t -> U256.t -> U256.t
(** The value as of the last {!commit}, regardless of journal state. *)

(** {1 Journal} *)

val snapshot : t -> int
val revert : t -> int -> unit
(** Undo every mutation made after the matching {!snapshot}. *)

(** {1 Effect extraction}

    The parallel block executor runs each transaction on a {!fork} of the
    master state — prefetched by the block's static partition and only read
    while the speculative phase runs — then lifts its net effects as a
    [change] list and replays them onto the master state at commit
    (DESIGN.md §10). *)

type change = {
  ch_addr : Address.t;
  ch_balance : U256.t option;  (** final balance, if written *)
  ch_nonce : int option;  (** final nonce, if written *)
  ch_code_hash : string option;  (** final code hash, if written *)
  ch_slots : (U256.t * U256.t) list;  (** final values of written slots *)
  ch_created : bool;  (** account created in the window *)
  ch_destructed : bool;  (** destructed (wins over the other fields) *)
}

val changes_since : t -> int -> change list
(** Net effects of every journal entry made after the given {!snapshot}
    mark, one record per touched address (sorted), carrying {e final}
    values — must be called before any intervening {!revert} or {!commit}.
    Derived from the journal, never from dirty flags, so reverted writes
    (e.g. an inner call that failed) are excluded exactly as {!revert}
    excludes them. *)

val apply_changes : t -> change list -> unit
(** Replay extracted effects onto [t] as ordinary journaled writes.  Code
    is transplanted by hash — sound because the code store lives in the
    shared {!Backend}. *)

(** {1 Commit and commitment} *)

val commit : t -> string
(** Flush dirty accounts and storage into the tries; returns the new state
    root.  Caches stay warm. *)

val root : t -> string
(** Root as of the last commit (or creation). *)

(** {1 Read-set tracking and prefetch} *)

val set_tracking : t -> bool -> unit
(** When on, every cache-missing read is recorded as a {!touch}. *)

val touches : t -> touch list
(** Recorded touches, oldest first. *)

val clear_touches : t -> unit

val warm : t -> touch list -> unit
(** Perform the trie reads for the given touches now, populating the caches
    (the prefetcher's critical-path I/O elimination). *)
