(** 256-bit unsigned machine words, the value type of the EVM.

    All arithmetic is modulo [2^256].  Values are immutable.  The signed
    operations ([sdiv], [srem], [slt], [sgt], [shift_right_arith],
    [signextend]) interpret words as two's-complement, exactly as the EVM
    does. *)

type t

val zero : t
val one : t
val max_value : t

(** {1 Conversions} *)

val of_int : int -> t
(** [of_int n] requires [n >= 0]. @raise Invalid_argument otherwise. *)

val to_int_opt : t -> int option
(** [None] when the value does not fit in a non-negative OCaml [int]. *)

val to_int_exn : t -> int
(** @raise Invalid_argument when the value does not fit. *)

val of_int64 : int64 -> t
(** Interprets the argument as unsigned. *)

val of_limbs : int64 -> int64 -> int64 -> int64 -> t
(** [of_limbs x0 x1 x2 x3] with [x0] least significant. *)

val to_limbs : t -> int64 * int64 * int64 * int64

val of_hex : string -> t
(** Accepts an optional ["0x"] prefix; up to 64 hex digits.
    @raise Invalid_argument on malformed input. *)

val to_hex : t -> string
(** Minimal-length lowercase hex with ["0x"] prefix. *)

val of_decimal : string -> t
(** @raise Invalid_argument on malformed input or overflow. *)

val to_decimal : t -> string

val of_string : string -> t
(** Dispatches on a ["0x"] prefix to {!of_hex}, else {!of_decimal}. *)

val of_bytes_be : ?off:int -> ?len:int -> string -> t
(** Big-endian bytes, at most 32; shorter inputs are zero-extended on the
    left, exactly like EVM calldata/storage decoding. *)

val to_bytes_be : t -> string
(** Always 32 bytes, big-endian. *)

val blit_be : t -> int -> Bytes.t -> int -> int -> unit
(** [blit_be x src_off dst dst_off len] writes bytes [src_off .. src_off +
    len - 1] of [x]'s 32-byte big-endian encoding into [dst] at [dst_off],
    without building the encoding.
    @raise Invalid_argument when either range is out of bounds. *)

(** {1 Predicates and comparison (unsigned unless noted)} *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val lt : t -> t -> bool
val gt : t -> t -> bool
val le : t -> t -> bool
val ge : t -> t -> bool
val slt : t -> t -> bool (** signed < *)

val sgt : t -> t -> bool (** signed > *)

val hash : t -> int

(** {1 Arithmetic modulo 2^256} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Unsigned division; EVM semantics: [div x zero = zero]. *)

val rem : t -> t -> t
(** Unsigned remainder; [rem x zero = zero]. *)

val sdiv : t -> t -> t
(** Signed division truncating toward zero; [sdiv x zero = zero] and
    [sdiv min_signed (-1) = min_signed] (EVM overflow rule). *)

val srem : t -> t -> t
(** Signed remainder, sign follows the dividend; [srem x zero = zero]. *)

val addmod : t -> t -> t -> t
(** [(x + y) mod m] computed without 256-bit overflow; zero when [m = 0]. *)

val mulmod : t -> t -> t -> t
(** [(x * y) mod m] with a 512-bit intermediate; zero when [m = 0]. *)

val exp : t -> t -> t
(** [exp base e] by square-and-multiply modulo [2^256]. *)

val signextend : t -> t -> t
(** [signextend k x]: sign-extend [x] from byte position [k] (0 = least
    significant byte), EVM [SIGNEXTEND] semantics. *)

(** {1 Bitwise} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val byte : t -> t -> t
(** [byte i x] extracts the [i]-th byte counting from the most significant
    end (EVM [BYTE]); zero when [i >= 32]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val shift_right_arith : t -> int -> t

val bits : t -> int
(** Number of significant bits; [bits zero = 0]. *)

val byte_size : t -> int
(** Minimal number of bytes needed; [byte_size zero = 0]. *)

val testbit : t -> int -> bool

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
(** Prints decimal for small values and hex for large ones. *)
