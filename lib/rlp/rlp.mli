(** Recursive Length Prefix serialisation (Ethereum yellow paper, appendix B).

    Used to serialise trie nodes, transactions and block headers before
    hashing, so that state roots commit to canonical byte strings. *)

type item =
  | Str of string  (** an uninterpreted byte string *)
  | List of item list

exception Decode_error of string

val encode : item -> string

val decode : string -> item
(** @raise Decode_error on malformed or trailing input. *)

val encode_int : int -> item
(** Big-endian minimal encoding of a non-negative integer as [Str]. *)

val decode_int : item -> int
(** @raise Decode_error on a [List], non-minimal form, or overflow. *)

val pp : Format.formatter -> item -> unit

(** {1 In-place encoding}

    Writers for callers that size an encoding exactly and write it into
    one buffer, with no [item] tree in between: the trie's node codec and
    the transaction hash.  Each [put_*] writes at [pos] and returns the
    position after what it wrote; the bytes equal {!encode}'s. *)

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
