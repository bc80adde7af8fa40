(** EVM opcodes: byte encoding, arity, and classification. *)

type t =
  (* 0x00s: stop and arithmetic *)
  | STOP | ADD | MUL | SUB | DIV | SDIV | MOD | SMOD | ADDMOD | MULMOD | EXP | SIGNEXTEND
  (* 0x10s: comparison and bitwise *)
  | LT | GT | SLT | SGT | EQ | ISZERO | AND | OR | XOR | NOT | BYTE | SHL | SHR | SAR
  (* 0x20 *)
  | SHA3
  (* 0x30s: environment *)
  | ADDRESS | BALANCE | ORIGIN | CALLER | CALLVALUE | CALLDATALOAD | CALLDATASIZE
  | CALLDATACOPY | CODESIZE | CODECOPY | GASPRICE | EXTCODESIZE | EXTCODECOPY
  | RETURNDATASIZE | RETURNDATACOPY | EXTCODEHASH
  (* 0x40s: block information *)
  | BLOCKHASH | COINBASE | TIMESTAMP | NUMBER | DIFFICULTY | GASLIMIT | CHAINID | SELFBALANCE
  (* 0x50s: stack, memory, storage, flow *)
  | POP | MLOAD | MSTORE | MSTORE8 | SLOAD | SSTORE | JUMP | JUMPI | PC | MSIZE | GAS | JUMPDEST
  (* 0x60-0x7f / 0x80s / 0x90s / 0xa0s *)
  | PUSH of int  (** 1..32 *)
  | DUP of int  (** 1..16 *)
  | SWAP of int  (** 1..16 *)
  | LOG of int  (** 0..4 *)
  (* 0xf0s: system *)
  | CREATE | CALL | CALLCODE | RETURN | DELEGATECALL | CREATE2 | STATICCALL | REVERT
  | INVALID | SELFDESTRUCT

val to_byte : t -> int
val of_byte : int -> t option
(** [None] for unassigned opcodes (executing one is an invalid-op fault). *)

val name : t -> string
val pp : Format.formatter -> t -> unit

val stack_in : t -> int
(** Number of operands popped. *)

val stack_out : t -> int
(** Number of results pushed (0 or 1 except DUP/SWAP which are modelled as
    pure stack shuffles). *)

val push_bytes : t -> int
(** Immediate length: n for [PUSH n], 0 otherwise. *)

