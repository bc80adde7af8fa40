(** Symbolic bytes for the S-EVM builder: where each byte of a frame's
    memory, call data, return data or output came from.

    A byte source is an unboxed [int]: a constant byte [c] is [c] itself
    (0..255), and byte [i] (0..31) of register [r]'s 32-byte big-endian
    encoding is [256 + 32 r + i].  Zero is the constant zero byte, so a
    fresh array is all-zero memory.  Memory is one growable array of
    sources per frame, extended to the high-water mark of its writes;
    reads past the end read constant zeros, as EVM memory does.  Slices
    keep the encoding, so nothing is boxed per byte anywhere. *)

type src = int

val zero : src
val of_char : char -> src
val of_reg : int -> int -> src
(** [of_reg r i]: byte [i] (0..31) of register [r]. *)

val is_const : src -> bool
val char_of : src -> char
(** The byte of a constant source. *)

val reg_of : src -> int
val byte_of : src -> int
(** Register and byte index of a register source. *)

val of_string : string -> src array
(** Constant sources for every byte of a string. *)

val get : src array -> int -> src
(** [get a i] is [a.(i)], or the constant zero outside [a]. *)

val slice : src array -> int -> int -> src array
(** [slice a off len]: [len] sources from [off], zero-padded past the end. *)

(** {1 Memory} *)

type t

exception Out_of_range
(** A write past 32 MiB, far beyond what any trace's gas can expand
    memory to. *)

val create : unit -> t

val bytes : t -> src array
(** The memory's current array: its sources up to the high-water mark,
    constant zeros after.  Valid until the next write. *)

val high_water : t -> int
(** One past the highest byte ever written. *)

val write_const_word : t -> int -> U256.t -> unit
(** The 32 big-endian bytes of a constant at an offset (MSTORE). *)

val write_reg_word : t -> int -> int -> unit
(** The 32 bytes of a register at an offset (MSTORE). *)

val write_byte : t -> int -> src -> unit

val blit : t -> dst:int -> src array -> off:int -> len:int -> unit
(** [len] sources of [src] from [off] into memory at [dst], zero-padded
    past the end of [src]; nothing happens when [len] is 0. *)

val blit_string : t -> dst:int -> string -> off:int -> len:int -> unit
(** Likewise from constant bytes (CODECOPY, EXTCODECOPY). *)
