(** Recursive Length Prefix serialisation (Ethereum yellow paper, appendix B).

    Used to serialise trie nodes, transactions and block headers before
    hashing, so that state roots commit to canonical byte strings. *)

type item =
  | Str of string  (** an uninterpreted byte string *)
  | List of item list

exception Decode_error of string

val encode : item -> string
(** Sizes the item, then writes it into one buffer through the writers
    below. *)

val decode : string -> item
(** Reads through {!item_end}, so it makes exactly the in-place readers'
    checks: every header and payload in bounds, every length minimal, no
    single byte below 0x80 under a header.
    @raise Decode_error on malformed or trailing input. *)

val encode_int : int -> item
(** Big-endian minimal encoding of a non-negative integer as [Str]. *)

val decode_int : item -> int
(** @raise Decode_error on a [List], non-minimal form, or overflow. *)

val pp : Format.formatter -> item -> unit

(** {1 In-place encoding}

    Writers for callers that size an encoding exactly and write it into
    one buffer, with no [item] tree in between: {!encode} itself, the
    trie's node codec, the state records and the transaction hash.  Each
    [put_*] writes at [pos] and returns the position after what it wrote;
    the bytes equal {!encode}'s. *)

val header_len : int -> int
(** Bytes of the header of an item with a payload of the given length. *)

val str_size : string -> int
(** Bytes of [encode (Str s)]. *)

val int_size : int -> int
(** Bytes of [encode (encode_int n)].
    @raise Invalid_argument on a negative [n]. *)

val put_header : Bytes.t -> int -> int -> int -> int
(** [put_header b pos base len] writes the header of an item with a
    [len]-byte payload; [base] is [0x80] for a string, [0xc0] for a list. *)

val put_str : Bytes.t -> int -> string -> int
(** Writes [encode (Str s)]. *)

val put_int : Bytes.t -> int -> int -> int
(** Writes [encode (encode_int n)].
    @raise Invalid_argument on a negative [n]. *)

(** {1 In-place decoding}

    Readers for callers that walk an encoding without building an [item]
    tree: {!decode} itself, the trie's node walk and the state records.
    Offsets index the encoding; an item's header starts at [pos]. *)

val payload_start : string -> int -> int
(** Offset of the payload of the item whose header starts at [pos]: [pos]
    itself for a single byte below 0x80.  Reads the header byte only; it
    checks nothing, so call it on an item {!item_end} accepted. *)

val item_end : string -> int -> int -> int
(** [item_end s pos limit] is the end of the item whose header starts at
    [pos], which must end by [limit].  It checks the header and that the
    payload is in bounds, not the items inside a list.  The empty string
    0x80 and a 32-byte string 0xa0 are skipped without the general header
    parse.
    @raise Decode_error on a header or payload past [limit], a non-minimal
    length, or a single byte below 0x80 under a header. *)

val is_list : string -> int -> bool
(** Whether the item whose header starts at [pos] is a list. *)

val int_at : string -> int -> int -> int
(** [int_at s pos stop] reads the item from [pos] to [stop] as
    {!decode_int} reads it.
    @raise Decode_error on a list, a leading zero or overflow. *)
