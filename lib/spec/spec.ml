(* The hardfork spec layer (DESIGN.md §12).

   Every rule the execution engines consult that has changed across
   Ethereum hardforks — static gas charges, opcode availability, the
   EXP per-byte and calldata pricing, the 63/64 forwarding rule, SSTORE
   clear refunds, and EIP-2929-style warm/cold access surcharges — lives
   in one dense record, [t].  Forks declare only their *deltas* over a
   parent ([delta]); [resolve] folds the inheritance chain once per fork
   and memoizes the result, so the hot paths index flat arrays and never
   re-derive anything.

   This library is deliberately dependency-free: gas tables are indexed
   by raw opcode byte (the same index `lib/evm/op.ml` assigns), so the
   spec can sit below lib/evm in the dependency order and the decoded
   instruction cache can key artifacts by code hash × spec id.

   The fork ladder is Frontier → Tangerine → Constantinople → Istanbul →
   Berlin — a 5-rung compression of mainnet history carrying the changes
   that matter to Forerunner's constraint machinery: EIP-150 repricing +
   the 63/64 rule (Tangerine), the Byzantium/Constantinople opcode batch
   (REVERT, shifts, CREATE2, STATICCALL, RETURNDATA*, EXTCODEHASH),
   EIP-1884/2028 repricing + CHAINID/SELFBALANCE (Istanbul), and
   EIP-2929 access lists (Berlin).  Istanbul is the process default.
   Charges no fork in the ladder changed (per-word hashing and copying,
   call value and stipend, code deposit, ...) are plain module-level
   constants below, so this file is the one source of gas truth. *)

type fork = Frontier | Tangerine | Constantinople | Istanbul | Berlin

let all_forks = [ Frontier; Tangerine; Constantinople; Istanbul; Berlin ]
let n_forks = 5

let fork_name = function
  | Frontier -> "frontier"
  | Tangerine -> "tangerine"
  | Constantinople -> "constantinople"
  | Istanbul -> "istanbul"
  | Berlin -> "berlin"

let fork_of_string s =
  match String.lowercase_ascii s with
  | "frontier" -> Some Frontier
  | "tangerine" -> Some Tangerine
  | "constantinople" -> Some Constantinople
  | "istanbul" -> Some Istanbul
  | "berlin" -> Some Berlin
  | _ -> None

let fork_id = function
  | Frontier -> 0
  | Tangerine -> 1
  | Constantinople -> 2
  | Istanbul -> 3
  | Berlin -> 4

let fork_of_id = function
  | 0 -> Some Frontier
  | 1 -> Some Tangerine
  | 2 -> Some Constantinople
  | 3 -> Some Istanbul
  | 4 -> Some Berlin
  | _ -> None

let parent = function
  | Frontier -> None
  | Tangerine -> Some Frontier
  | Constantinople -> Some Tangerine
  | Istanbul -> Some Constantinople
  | Berlin -> Some Istanbul

(* ---- the resolved spec ---- *)

type t = {
  fork : fork;
  id : int;  (* dense 0..n_forks-1; the decode-cache key component *)
  name : string;
  static_gas : int array;  (* 256 entries, by opcode byte *)
  available : bool array;  (* 256 entries, by opcode byte *)
  g_exp_byte : int;
  g_tx_data_nonzero : int;
  g_cold_sload : int;  (* surcharge over static on a cold-slot SLOAD *)
  g_cold_sstore : int;  (* surcharge over static on a cold-slot SSTORE *)
  g_cold_account : int;  (* surcharge on a cold-account BALANCE / CALL-family *)
  has_access_lists : bool;  (* EIP-2929 warm/cold tracking active *)
  has_63_64 : bool;  (* EIP-150 gas-forwarding cap *)
  refund_sstore_clear : int;  (* refund per SSTORE writing zero; 0 = refunds off *)
  refund_cap_divisor : int;  (* refund capped at gas_used / divisor *)
}

let static_gas t b = t.static_gas.(b)
let available t b = t.available.(b)

(* ---- per-fork deltas ---- *)

type delta = {
  d_gas : (int * int) list;  (* opcode byte, new static cost *)
  d_enable : int list;  (* opcode bytes that become available *)
  d_exp_byte : int option;
  d_tx_data_nonzero : int option;
  d_cold : (int * int * int) option;  (* sload, sstore, account surcharges *)
  d_access_lists : bool option;
  d_63_64 : bool option;
  d_refund : (int * int) option;  (* sstore-clear refund, cap divisor *)
}

let no_delta =
  {
    d_gas = [];
    d_enable = [];
    d_exp_byte = None;
    d_tx_data_nonzero = None;
    d_cold = None;
    d_access_lists = None;
    d_63_64 = None;
    d_refund = None;
  }

(* The Frontier base.  Static charges follow the Yellow Paper gas classes
   (zero, base, verylow, low, mid, high, ...), with the historical
   pre-EIP-150 values for the state opcodes; bytes for opcodes not yet
   introduced carry cost 0 and available=false (the enabling fork's delta
   sets both). *)
let frontier_base () =
  let g = Array.make 256 0 in
  let avail = Array.make 256 false in
  let set b cost =
    g.(b) <- cost;
    avail.(b) <- true
  in
  (* terminators / free *)
  set 0x00 0 (* STOP *);
  set 0xf3 0 (* RETURN *);
  set 0xfe 0 (* INVALID: designated invalid, charges nothing *);
  (* base = 2 *)
  List.iter
    (fun b -> set b 2)
    [ 0x30 (* ADDRESS *); 0x32 (* ORIGIN *); 0x33 (* CALLER *); 0x34 (* CALLVALUE *);
      0x36 (* CALLDATASIZE *); 0x38 (* CODESIZE *); 0x3a (* GASPRICE *);
      0x41 (* COINBASE *); 0x42 (* TIMESTAMP *); 0x43 (* NUMBER *);
      0x44 (* DIFFICULTY *); 0x45 (* GASLIMIT *); 0x50 (* POP *); 0x58 (* PC *);
      0x59 (* MSIZE *); 0x5a (* GAS *) ];
  (* verylow = 3 *)
  List.iter
    (fun b -> set b 3)
    [ 0x01 (* ADD *); 0x03 (* SUB *); 0x19 (* NOT *); 0x10 (* LT *); 0x11 (* GT *);
      0x12 (* SLT *); 0x13 (* SGT *); 0x14 (* EQ *); 0x15 (* ISZERO *); 0x16 (* AND *);
      0x17 (* OR *); 0x18 (* XOR *); 0x1a (* BYTE *); 0x35 (* CALLDATALOAD *);
      0x51 (* MLOAD *); 0x52 (* MSTORE *); 0x53 (* MSTORE8 *);
      0x37 (* CALLDATACOPY *); 0x39 (* CODECOPY *) ];
  for b = 0x60 to 0x7f do set b 3 done (* PUSH1..32 *);
  for b = 0x80 to 0x8f do set b 3 done (* DUP1..16 *);
  for b = 0x90 to 0x9f do set b 3 done (* SWAP1..16 *);
  (* low = 5 *)
  List.iter
    (fun b -> set b 5)
    [ 0x02 (* MUL *); 0x04 (* DIV *); 0x05 (* SDIV *); 0x06 (* MOD *); 0x07 (* SMOD *);
      0x0b (* SIGNEXTEND *) ];
  (* mid = 8 / high = 10 *)
  set 0x08 8 (* ADDMOD *);
  set 0x09 8 (* MULMOD *);
  set 0x56 8 (* JUMP *);
  set 0x57 10 (* JUMPI *);
  set 0x0a 10 (* EXP *);
  set 0x20 30 (* SHA3 *);
  set 0x5b 1 (* JUMPDEST *);
  (* logs: 375 + n*375 *)
  for n = 0 to 4 do set (0xa0 + n) (375 + (n * 375)) done;
  (* state opcodes, pre-EIP-150 prices *)
  set 0x31 20 (* BALANCE *);
  set 0x3b 20 (* EXTCODESIZE *);
  set 0x3c 20 (* EXTCODECOPY *);
  set 0x40 20 (* BLOCKHASH *);
  set 0x54 50 (* SLOAD *);
  set 0x55 5000 (* SSTORE *);
  set 0xf0 32000 (* CREATE *);
  set 0xf1 40 (* CALL *);
  set 0xf2 40 (* CALLCODE *);
  set 0xff 0 (* SELFDESTRUCT *);
  {
    fork = Frontier;
    id = 0;
    name = "frontier";
    static_gas = g;
    available = avail;
    g_exp_byte = 10;
    g_tx_data_nonzero = 68;
    g_cold_sload = 0;
    g_cold_sstore = 0;
    g_cold_account = 0;
    has_access_lists = false;
    has_63_64 = false;
    refund_sstore_clear = 15000;
    refund_cap_divisor = 2;
  }

(* Deltas: what each fork changed relative to its parent. *)
let delta_of = function
  | Frontier -> no_delta
  | Tangerine ->
    (* EIP-150 repricing + 63/64 forwarding; DELEGATECALL arrives *)
    {
      no_delta with
      d_gas =
        [ (0x54, 200) (* SLOAD *); (0x31, 400) (* BALANCE *);
          (0x3b, 700) (* EXTCODESIZE *); (0x3c, 700) (* EXTCODECOPY *);
          (0xf1, 700) (* CALL *); (0xf2, 700) (* CALLCODE *);
          (0xf4, 700) (* DELEGATECALL *); (0xff, 5000) (* SELFDESTRUCT *) ];
      d_enable = [ 0xf4 ];
      d_63_64 = Some true;
    }
  | Constantinople ->
    (* the Byzantium/Constantinople opcode batch *)
    {
      no_delta with
      d_gas =
        [ (0x1b, 3) (* SHL *); (0x1c, 3) (* SHR *); (0x1d, 3) (* SAR *);
          (0x3d, 2) (* RETURNDATASIZE *); (0x3e, 3) (* RETURNDATACOPY *);
          (0x3f, 700) (* EXTCODEHASH *); (0xf5, 32000) (* CREATE2 *);
          (0xfa, 700) (* STATICCALL *); (0xfd, 0) (* REVERT *) ];
      d_enable = [ 0x1b; 0x1c; 0x1d; 0x3d; 0x3e; 0x3f; 0xf5; 0xfa; 0xfd ];
    }
  | Istanbul ->
    (* EIP-1884/2028 repricing, CHAINID/SELFBALANCE; refunds dropped (the
       DESIGN.md §6 flat-SSTORE simplification starts here) *)
    {
      no_delta with
      d_gas =
        [ (0x54, 800) (* SLOAD *); (0x31, 700) (* BALANCE *);
          (0x46, 2) (* CHAINID *); (0x47, 5) (* SELFBALANCE *) ];
      d_enable = [ 0x46; 0x47 ];
      d_exp_byte = Some 50;
      d_tx_data_nonzero = Some 16;
      d_refund = Some (0, 2);
    }
  | Berlin ->
    (* EIP-2929: cheap warm accesses, cold surcharges.  EXTCODE* keep
       their flat Istanbul price — a documented simplification keeping
       warmth tracking confined to the opcodes the S-EVM builder can
       observe exactly (SLOAD/SSTORE/BALANCE/CALL-family). *)
    {
      no_delta with
      d_gas =
        [ (0x54, 100) (* SLOAD *); (0x31, 100) (* BALANCE *); (0xf1, 100) (* CALL *);
          (0xf2, 100) (* CALLCODE *); (0xf4, 100) (* DELEGATECALL *);
          (0xfa, 100) (* STATICCALL *) ];
      d_cold = Some (2000, 2100, 2500);
      d_access_lists = Some true;
    }

let apply_delta (p : t) fork (d : delta) : t =
  let static_gas = Array.copy p.static_gas in
  let available = Array.copy p.available in
  List.iter (fun (b, cost) -> static_gas.(b) <- cost) d.d_gas;
  List.iter (fun b -> available.(b) <- true) d.d_enable;
  let cold_sload, cold_sstore, cold_account =
    match d.d_cold with
    | Some (sl, ss, a) -> (sl, ss, a)
    | None -> (p.g_cold_sload, p.g_cold_sstore, p.g_cold_account)
  in
  let refund_clear, refund_div =
    match d.d_refund with
    | Some (c, v) -> (c, v)
    | None -> (p.refund_sstore_clear, p.refund_cap_divisor)
  in
  {
    fork;
    id = fork_id fork;
    name = fork_name fork;
    static_gas;
    available;
    g_exp_byte = Option.value d.d_exp_byte ~default:p.g_exp_byte;
    g_tx_data_nonzero = Option.value d.d_tx_data_nonzero ~default:p.g_tx_data_nonzero;
    g_cold_sload = cold_sload;
    g_cold_sstore = cold_sstore;
    g_cold_account = cold_account;
    has_access_lists = Option.value d.d_access_lists ~default:p.has_access_lists;
    has_63_64 = Option.value d.d_63_64 ~default:p.has_63_64;
    refund_sstore_clear = refund_clear;
    refund_cap_divisor = refund_div;
  }

(* ---- resolution, memoized once per process ---- *)

let table : t option array = Array.make n_forks None

let rec resolve fork =
  let i = fork_id fork in
  match table.(i) with
  | Some t -> t
  | None ->
    let t =
      match parent fork with
      | None -> frontier_base ()
      | Some p -> apply_delta (resolve p) fork (delta_of fork)
    in
    table.(i) <- Some t;
    t

let default_fork = Istanbul
let default () = resolve Istanbul

(* The process-wide default spec, consulted when no explicit spec is
   threaded.  Nothing sets it; it stays a ref only because perfbench reads
   [!Spec.current]. *)
let current : t ref = ref (resolve Istanbul)

(* ---- fork-invariant charges ---- *)

let g_sha3_word = 6
let g_copy_word = 3
let g_log_byte = 8
let g_call_value = 9000
let g_call_stipend = 2300
let g_new_account = 25000
let g_code_deposit_byte = 200
let g_tx = 21000
let g_tx_create = 32000
let g_tx_data_zero = 4

(* Intrinsic transaction gas under this spec: the per-fork nonzero-byte
   price over the fork-invariant base. *)
let intrinsic_gas t ~is_create data =
  let gas = ref (if is_create then g_tx + g_tx_create else g_tx) in
  for i = 0 to String.length data - 1 do
    gas := !gas + if String.unsafe_get data i = '\000' then g_tx_data_zero else t.g_tx_data_nonzero
  done;
  !gas
