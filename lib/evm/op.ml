type t =
  | STOP | ADD | MUL | SUB | DIV | SDIV | MOD | SMOD | ADDMOD | MULMOD | EXP | SIGNEXTEND
  | LT | GT | SLT | SGT | EQ | ISZERO | AND | OR | XOR | NOT | BYTE | SHL | SHR | SAR
  | SHA3
  | ADDRESS | BALANCE | ORIGIN | CALLER | CALLVALUE | CALLDATALOAD | CALLDATASIZE
  | CALLDATACOPY | CODESIZE | CODECOPY | GASPRICE | EXTCODESIZE | EXTCODECOPY
  | RETURNDATASIZE | RETURNDATACOPY | EXTCODEHASH
  | BLOCKHASH | COINBASE | TIMESTAMP | NUMBER | DIFFICULTY | GASLIMIT | CHAINID | SELFBALANCE
  | POP | MLOAD | MSTORE | MSTORE8 | SLOAD | SSTORE | JUMP | JUMPI | PC | MSIZE | GAS | JUMPDEST
  | PUSH of int
  | DUP of int
  | SWAP of int
  | LOG of int
  | CREATE | CALL | CALLCODE | RETURN | DELEGATECALL | CREATE2 | STATICCALL | REVERT
  | INVALID | SELFDESTRUCT

let to_byte = function
  | STOP -> 0x00 | ADD -> 0x01 | MUL -> 0x02 | SUB -> 0x03 | DIV -> 0x04 | SDIV -> 0x05
  | MOD -> 0x06 | SMOD -> 0x07 | ADDMOD -> 0x08 | MULMOD -> 0x09 | EXP -> 0x0a
  | SIGNEXTEND -> 0x0b
  | LT -> 0x10 | GT -> 0x11 | SLT -> 0x12 | SGT -> 0x13 | EQ -> 0x14 | ISZERO -> 0x15
  | AND -> 0x16 | OR -> 0x17 | XOR -> 0x18 | NOT -> 0x19 | BYTE -> 0x1a
  | SHL -> 0x1b | SHR -> 0x1c | SAR -> 0x1d
  | SHA3 -> 0x20
  | ADDRESS -> 0x30 | BALANCE -> 0x31 | ORIGIN -> 0x32 | CALLER -> 0x33 | CALLVALUE -> 0x34
  | CALLDATALOAD -> 0x35 | CALLDATASIZE -> 0x36 | CALLDATACOPY -> 0x37 | CODESIZE -> 0x38
  | CODECOPY -> 0x39 | GASPRICE -> 0x3a | EXTCODESIZE -> 0x3b | EXTCODECOPY -> 0x3c
  | RETURNDATASIZE -> 0x3d | RETURNDATACOPY -> 0x3e | EXTCODEHASH -> 0x3f
  | BLOCKHASH -> 0x40 | COINBASE -> 0x41 | TIMESTAMP -> 0x42 | NUMBER -> 0x43
  | DIFFICULTY -> 0x44 | GASLIMIT -> 0x45 | CHAINID -> 0x46 | SELFBALANCE -> 0x47
  | POP -> 0x50 | MLOAD -> 0x51 | MSTORE -> 0x52 | MSTORE8 -> 0x53 | SLOAD -> 0x54
  | SSTORE -> 0x55 | JUMP -> 0x56 | JUMPI -> 0x57 | PC -> 0x58 | MSIZE -> 0x59 | GAS -> 0x5a
  | JUMPDEST -> 0x5b
  | PUSH n -> 0x5f + n
  | DUP n -> 0x7f + n
  | SWAP n -> 0x8f + n
  | LOG n -> 0xa0 + n
  | CREATE -> 0xf0 | CALL -> 0xf1 | CALLCODE -> 0xf2 | RETURN -> 0xf3
  | DELEGATECALL -> 0xf4 | CREATE2 -> 0xf5 | STATICCALL -> 0xfa | REVERT -> 0xfd
  | INVALID -> 0xfe | SELFDESTRUCT -> 0xff

let of_byte b =
  match b with
  | 0x00 -> Some STOP | 0x01 -> Some ADD | 0x02 -> Some MUL | 0x03 -> Some SUB
  | 0x04 -> Some DIV | 0x05 -> Some SDIV | 0x06 -> Some MOD | 0x07 -> Some SMOD
  | 0x08 -> Some ADDMOD | 0x09 -> Some MULMOD | 0x0a -> Some EXP | 0x0b -> Some SIGNEXTEND
  | 0x10 -> Some LT | 0x11 -> Some GT | 0x12 -> Some SLT | 0x13 -> Some SGT
  | 0x14 -> Some EQ | 0x15 -> Some ISZERO | 0x16 -> Some AND | 0x17 -> Some OR
  | 0x18 -> Some XOR | 0x19 -> Some NOT | 0x1a -> Some BYTE | 0x1b -> Some SHL
  | 0x1c -> Some SHR | 0x1d -> Some SAR
  | 0x20 -> Some SHA3
  | 0x30 -> Some ADDRESS | 0x31 -> Some BALANCE | 0x32 -> Some ORIGIN | 0x33 -> Some CALLER
  | 0x34 -> Some CALLVALUE | 0x35 -> Some CALLDATALOAD | 0x36 -> Some CALLDATASIZE
  | 0x37 -> Some CALLDATACOPY | 0x38 -> Some CODESIZE | 0x39 -> Some CODECOPY
  | 0x3a -> Some GASPRICE | 0x3b -> Some EXTCODESIZE | 0x3c -> Some EXTCODECOPY
  | 0x3d -> Some RETURNDATASIZE | 0x3e -> Some RETURNDATACOPY | 0x3f -> Some EXTCODEHASH
  | 0x40 -> Some BLOCKHASH | 0x41 -> Some COINBASE | 0x42 -> Some TIMESTAMP
  | 0x43 -> Some NUMBER | 0x44 -> Some DIFFICULTY | 0x45 -> Some GASLIMIT
  | 0x46 -> Some CHAINID | 0x47 -> Some SELFBALANCE
  | 0x50 -> Some POP | 0x51 -> Some MLOAD | 0x52 -> Some MSTORE | 0x53 -> Some MSTORE8
  | 0x54 -> Some SLOAD | 0x55 -> Some SSTORE | 0x56 -> Some JUMP | 0x57 -> Some JUMPI
  | 0x58 -> Some PC | 0x59 -> Some MSIZE | 0x5a -> Some GAS | 0x5b -> Some JUMPDEST
  | b when b >= 0x60 && b <= 0x7f -> Some (PUSH (b - 0x5f))
  | b when b >= 0x80 && b <= 0x8f -> Some (DUP (b - 0x7f))
  | b when b >= 0x90 && b <= 0x9f -> Some (SWAP (b - 0x8f))
  | b when b >= 0xa0 && b <= 0xa4 -> Some (LOG (b - 0xa0))
  | 0xf0 -> Some CREATE | 0xf1 -> Some CALL | 0xf2 -> Some CALLCODE | 0xf3 -> Some RETURN
  | 0xf4 -> Some DELEGATECALL | 0xf5 -> Some CREATE2 | 0xfa -> Some STATICCALL
  | 0xfd -> Some REVERT | 0xfe -> Some INVALID | 0xff -> Some SELFDESTRUCT
  | _ -> None

let name = function
  | STOP -> "STOP" | ADD -> "ADD" | MUL -> "MUL" | SUB -> "SUB" | DIV -> "DIV"
  | SDIV -> "SDIV" | MOD -> "MOD" | SMOD -> "SMOD" | ADDMOD -> "ADDMOD" | MULMOD -> "MULMOD"
  | EXP -> "EXP" | SIGNEXTEND -> "SIGNEXTEND"
  | LT -> "LT" | GT -> "GT" | SLT -> "SLT" | SGT -> "SGT" | EQ -> "EQ" | ISZERO -> "ISZERO"
  | AND -> "AND" | OR -> "OR" | XOR -> "XOR" | NOT -> "NOT" | BYTE -> "BYTE"
  | SHL -> "SHL" | SHR -> "SHR" | SAR -> "SAR"
  | SHA3 -> "SHA3"
  | ADDRESS -> "ADDRESS" | BALANCE -> "BALANCE" | ORIGIN -> "ORIGIN" | CALLER -> "CALLER"
  | CALLVALUE -> "CALLVALUE" | CALLDATALOAD -> "CALLDATALOAD" | CALLDATASIZE -> "CALLDATASIZE"
  | CALLDATACOPY -> "CALLDATACOPY" | CODESIZE -> "CODESIZE" | CODECOPY -> "CODECOPY"
  | GASPRICE -> "GASPRICE" | EXTCODESIZE -> "EXTCODESIZE" | EXTCODECOPY -> "EXTCODECOPY"
  | RETURNDATASIZE -> "RETURNDATASIZE" | RETURNDATACOPY -> "RETURNDATACOPY"
  | EXTCODEHASH -> "EXTCODEHASH"
  | BLOCKHASH -> "BLOCKHASH" | COINBASE -> "COINBASE" | TIMESTAMP -> "TIMESTAMP"
  | NUMBER -> "NUMBER" | DIFFICULTY -> "DIFFICULTY" | GASLIMIT -> "GASLIMIT"
  | CHAINID -> "CHAINID" | SELFBALANCE -> "SELFBALANCE"
  | POP -> "POP" | MLOAD -> "MLOAD" | MSTORE -> "MSTORE" | MSTORE8 -> "MSTORE8"
  | SLOAD -> "SLOAD" | SSTORE -> "SSTORE" | JUMP -> "JUMP" | JUMPI -> "JUMPI"
  | PC -> "PC" | MSIZE -> "MSIZE" | GAS -> "GAS" | JUMPDEST -> "JUMPDEST"
  | PUSH n -> "PUSH" ^ string_of_int n
  | DUP n -> "DUP" ^ string_of_int n
  | SWAP n -> "SWAP" ^ string_of_int n
  | LOG n -> "LOG" ^ string_of_int n
  | CREATE -> "CREATE" | CALL -> "CALL" | CALLCODE -> "CALLCODE" | RETURN -> "RETURN"
  | DELEGATECALL -> "DELEGATECALL" | CREATE2 -> "CREATE2" | STATICCALL -> "STATICCALL"
  | REVERT -> "REVERT" | INVALID -> "INVALID" | SELFDESTRUCT -> "SELFDESTRUCT"

let pp ppf op = Format.pp_print_string ppf (name op)

let stack_in = function
  | STOP | JUMPDEST | PC | MSIZE | GAS | ADDRESS | ORIGIN | CALLER | CALLVALUE
  | CALLDATASIZE | CODESIZE | GASPRICE | RETURNDATASIZE | COINBASE | TIMESTAMP | NUMBER
  | DIFFICULTY | GASLIMIT | CHAINID | SELFBALANCE | PUSH _ | INVALID -> 0
  | ISZERO | NOT | POP | MLOAD | SLOAD | JUMP | CALLDATALOAD | BALANCE | EXTCODESIZE
  | EXTCODEHASH | BLOCKHASH | SELFDESTRUCT -> 1
  | ADD | MUL | SUB | DIV | SDIV | MOD | SMOD | EXP | SIGNEXTEND | LT | GT | SLT | SGT
  | EQ | AND | OR | XOR | BYTE | SHL | SHR | SAR | SHA3 | MSTORE | MSTORE8 | SSTORE
  | JUMPI | RETURN | REVERT -> 2
  | ADDMOD | MULMOD | CALLDATACOPY | CODECOPY | RETURNDATACOPY | CREATE -> 3
  | EXTCODECOPY | CREATE2 -> 4
  | LOG n -> n + 2
  | DUP n -> n
  | SWAP n -> n + 1
  | DELEGATECALL | STATICCALL -> 6
  | CALL | CALLCODE -> 7

let stack_out = function
  | STOP | JUMPDEST | POP | MSTORE | MSTORE8 | SSTORE | JUMP | JUMPI | CALLDATACOPY
  | CODECOPY | RETURNDATACOPY | EXTCODECOPY | LOG _ | RETURN | REVERT | INVALID
  | SELFDESTRUCT -> 0
  | DUP n -> n + 1
  | SWAP n -> n + 1
  | ADD | MUL | SUB | DIV | SDIV | MOD | SMOD | ADDMOD | MULMOD | EXP | SIGNEXTEND
  | LT | GT | SLT | SGT | EQ | ISZERO | AND | OR | XOR | NOT | BYTE | SHL | SHR | SAR
  | SHA3 | ADDRESS | BALANCE | ORIGIN | CALLER | CALLVALUE | CALLDATALOAD | CALLDATASIZE
  | CODESIZE | GASPRICE | EXTCODESIZE | RETURNDATASIZE | EXTCODEHASH | BLOCKHASH
  | COINBASE | TIMESTAMP | NUMBER | DIFFICULTY | GASLIMIT | CHAINID | SELFBALANCE
  | MLOAD | SLOAD | PC | MSIZE | GAS | PUSH _ | CREATE | CALL | CALLCODE | DELEGATECALL
  | CREATE2 | STATICCALL -> 1

let push_bytes = function PUSH n -> n | _ -> 0
let is_call = function CALL | CALLCODE | DELEGATECALL | STATICCALL -> true | _ -> false
