(** Storage locations: an (account, slot key) pair, with monomorphic
    compare, equality and hash (no polymorphic [Hashtbl.hash] or [compare]
    over the [U256] key).  The one key type of the builder's symbolic
    storage, the conflict union's written-slot set and the interpreter's
    EIP-2929 warm-slot set. *)

type t = Address.t * U256.t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
