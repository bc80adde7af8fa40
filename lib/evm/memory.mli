(** EVM linear memory: byte-addressed, zero-initialised, growing in 32-byte
    words with the quadratic expansion cost of {!memory_cost}. *)

val words : int -> int
(** Bytes rounded up to 32-byte words. *)

val memory_cost : int -> int
(** Total cost of a memory of [n] bytes (linear + quadratic term). *)

type t

val create : unit -> t

val size : t -> int
(** Current word-aligned high-water mark (the MSIZE value). *)

val expansion_cost : t -> int -> int -> int
(** [expansion_cost m off len]: gas to grow the memory to cover
    [off, off+len); 0 if already covered.  Charge before {!ensure}. *)

val ensure : t -> int -> int -> unit
(** Grow (zero-filled) to cover the range. *)

val load : t -> int -> int -> string
val store : t -> int -> string -> unit
val load_word : t -> int -> U256.t
val store_word : t -> int -> U256.t -> unit
val store_byte : t -> int -> int -> unit

val store_slice : t -> dst:int -> src:string -> src_off:int -> len:int -> unit
(** Copy with zero-padding past the end of [src] (CALLDATACOPY/CODECOPY
    semantics). *)
