(** Hexary Merkle-Patricia trie over a content-addressed node store.

    This is the state-commitment structure of Ethereum: every node is
    RLP-encoded (written and read in place, without an {!Rlp.item} tree)
    and stored under its Keccak-256 hash, so two tries with equal
    {!root_hash} hold identical contents — which is how Forerunner's
    correctness is validated (paper §5.2).

    Writes are deferred, as in geth's trie: {!set} and {!remove} rebuild
    the path in memory and leave the new nodes dirty, unencoded and
    unhashed.  {!commit} encodes each dirty node once, bottom-up, and stores
    it; intermediate nodes that a later write replaced are never stored.

    A write through a stored branch or extension does not decode it: the
    node keeps its stored encoding plus the children the writes replaced,
    and {!commit} copies the encoding and writes each new 32-byte child hash
    over the old one.  An overwrite that ends at a stored leaf with the same
    path builds the new leaf without reading the old one; a {!remove}
    through a stored branch whose child stays non-empty splices too.  Only
    a layout change decodes a stored node: a leaf or extension split, a
    branch value set or removed, a child added where the branch has none
    or emptied, and a {!remove} through a leaf or extension.  {!fold}
    decodes every node it visits.

    Lookups walk the trie from the root.  A stored node is read in place:
    one pass over its items, with {!Rlp.decode}'s checks, finds the child or
    value the next key nibble selects, without decoding the rest.  Writes
    make the same one pass over each stored node on their path.  The {!Db}
    counts node loads, which stand in for the LevelDB I/O that dominates
    cold state access in geth; dirty nodes cost no loads.  The Obs counters
    [trie.node_decodes] and [trie.node_splices] count stored nodes decoded
    and writes that went through a stored node without decoding it. *)

module Db : sig
  type t

  val create : unit -> t

  val node_reads : t -> int
  (** Number of node loads (the disk-I/O proxy). *)

  val node_writes : t -> int
  val reset_counters : t -> unit
  val size : t -> int

  val put : t -> string -> string
  (** [put db enc] stores the node encoding [enc] under its Keccak-256
      hash and returns the hash.  {!commit} stores through it; a store
      seeded with other encodings makes {!get} and {!set} raise on a
      malformed node.

      The table is keyed by the 32-byte digests themselves: since they are
      already uniform, it hashes a key by its first 8 bytes (read as an
      int) rather than by the generic hash over the string, and compares
      keys with [String.equal].  A key shorter than 8 bytes, which only a
      malformed stored node can name, takes the generic hash. *)
end

type t
(** A trie handle: a node store plus a root.  Handles are persistent values —
    [set] returns a new handle and never mutates old ones (old roots stay
    readable, which is what chain re-orgs and speculation snapshots need).
    Dirty nodes are immutable, so a handle taken before a {!commit} still
    reads its old contents after it. *)

val create : Db.t -> t
(** The empty trie. *)

val db : t -> Db.t

val root_hash : t -> string
(** 32-byte commitment.  Equal root hashes imply equal contents.  On a
    handle with dirty nodes this stores them as {!commit} does, but leaves
    the handle itself dirty. *)

val commit : t -> t
(** Encode, hash and store the dirty nodes (each once, children first) and
    return a handle on the same contents whose root is stored.  The argument
    handle is unchanged and stays valid. *)

val of_root : Db.t -> string -> t
(** Re-open a previously committed root. *)

val get : t -> string -> string option
(** [get t key] walks the trie; [None] when absent. *)

val set : t -> string -> string -> t
(** [set t key value] inserts or overwrites.  [value] must be non-empty;
    use {!remove} to delete. *)

val remove : t -> string -> t

val is_empty : t -> bool

val fold : t -> init:'a -> f:('a -> string -> string -> 'a) -> 'a
(** Iterate all (key, value) bindings (keys in nibble order). *)

val empty_root_hash : string
(** The well-known hash of the empty trie. *)
