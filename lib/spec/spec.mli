(** The hardfork spec layer (DESIGN.md §12): every fork-dependent rule
    the execution engines consult, resolved once into dense tables.

    Forks declare only deltas over a parent ({!delta}); {!resolve} folds
    the inheritance chain and memoizes, so hot paths index flat arrays.
    The library is dependency-free — gas tables are indexed by raw
    opcode byte — which lets it sit below lib/evm and key the decoded
    instruction cache by code hash × spec id. *)

type fork = Frontier | Tangerine | Constantinople | Istanbul | Berlin

val all_forks : fork list
(** Oldest first: Frontier, Tangerine, Constantinople, Istanbul, Berlin. *)

val n_forks : int

val fork_name : fork -> string
val fork_of_string : string -> fork option

val fork_id : fork -> int
(** Dense id, 0..{!n_forks}-1, oldest = 0.  Stamped into S-EVM paths and
    decode-cache keys. *)

val fork_of_id : int -> fork option

val parent : fork -> fork option
(** The fork this one declares deltas over; [None] for Frontier. *)

type t = {
  fork : fork;
  id : int;
  name : string;
  static_gas : int array;  (** 256 entries, by opcode byte *)
  available : bool array;  (** 256 entries, by opcode byte *)
  g_exp_byte : int;  (** EXP per-exponent-byte charge *)
  g_tx_data_nonzero : int;  (** intrinsic gas per nonzero calldata byte *)
  g_cold_sload : int;  (** surcharge over static on a cold-slot SLOAD *)
  g_cold_sstore : int;  (** surcharge over static on a cold-slot SSTORE *)
  g_cold_account : int;  (** surcharge on cold-account BALANCE / CALL-family *)
  has_access_lists : bool;  (** EIP-2929 warm/cold tracking active *)
  has_63_64 : bool;  (** EIP-150 gas-forwarding cap *)
  refund_sstore_clear : int;  (** refund per SSTORE writing zero; 0 = off *)
  refund_cap_divisor : int;  (** refund capped at gas_used / divisor *)
}

val static_gas : t -> int -> int
(** [static_gas t byte]: the hoisted static charge for an opcode byte.
    0 for unassigned or unavailable bytes. *)

val available : t -> int -> bool
(** Whether the opcode byte exists under this fork.  Executing an
    unavailable byte fails exactly like an unassigned one. *)

type delta = {
  d_gas : (int * int) list;  (** opcode byte, new static cost *)
  d_enable : int list;  (** opcode bytes that become available *)
  d_exp_byte : int option;
  d_tx_data_nonzero : int option;
  d_cold : (int * int * int) option;  (** sload, sstore, account surcharges *)
  d_access_lists : bool option;
  d_63_64 : bool option;
  d_refund : (int * int) option;  (** sstore-clear refund, cap divisor *)
}

val delta_of : fork -> delta
(** The declared delta over {!parent} (empty for Frontier); the
    inheritance tests pin [resolve] against exactly these fields. *)

val resolve : fork -> t
(** Resolve a fork's full spec by folding deltas from the base.
    Memoized: repeated calls return the same record. *)

val by_id : int -> t option

val default_fork : fork
(** Istanbul, the process default. *)

val default : unit -> t

val current : t ref
(** Process-wide default spec, used when no explicit spec is threaded:
    Istanbul.  Nothing in the program sets it; it stays a ref only because
    perfbench reads [!Spec.current].  A test that sets it must restore it. *)

(** {2 Fork-invariant charges}

    Parts of the schedule no fork in the ladder changed; the engines read
    them as constants rather than through a resolved {!t}. *)

val g_sha3_word : int
(** SHA3 / CREATE2 hashing, per 32-byte word. *)

val g_copy_word : int
(** [*COPY] opcodes, per 32-byte word. *)

val g_log_byte : int
(** LOG data, per byte. *)

val g_call_value : int
(** CALL-family transfer of a nonzero value. *)

val g_call_stipend : int
(** Gas handed to the callee of a value transfer. *)

val g_new_account : int
(** CALL creating the recipient account. *)

val g_code_deposit_byte : int
(** CREATE deposit, per byte of deployed code. *)

val intrinsic_gas : t -> is_create:bool -> string -> int
(** Intrinsic transaction gas under this spec (21000/53000 base plus
    per-byte calldata charges with the fork's nonzero price). *)
