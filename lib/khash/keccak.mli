(** Keccak-256 — the hash Ethereum uses for everything: trie keys, storage
    mapping slots, the [SHA3] opcode, code hashes.

    This is original Keccak (domain-separation byte [0x01]), not the
    finalised SHA3-256 ([0x06]).  The sponge and the permutation run in a
    portable C kernel ([keccak_stubs.c]) that keeps its state on the C
    stack, so any domain may hash at any time; the test suite holds it to
    an OCaml reference implementation.  While Obs is on, every digest bumps
    [khash.digests] and [khash.permutations] (one per full 136-byte block,
    plus one). *)

val digest : string -> string
(** [digest msg] is the 32-byte Keccak-256 digest of [msg]. *)

val digest_hex : string -> string
(** [digest_hex msg] is the digest rendered as 64 lowercase hex chars. *)

val to_hex : string -> string
(** Hex-encode arbitrary bytes (helper shared by tests and tools). *)

val digest_u256 : string -> U256.t
(** The digest interpreted as a big-endian 256-bit word. *)
