(** The EVM interpreter: a stack machine over {!State.Statedb} with gas
    accounting, nested message calls, and optional instruction tracing.

    {!Processor} wraps this with transaction-level processing; the functions
    here are the message-call layer it builds on. *)

open State

type fail_reason =
  | Out_of_gas
  | Stack_underflow
  | Stack_overflow
  | Invalid_jump of int
  | Invalid_opcode of int
  | Static_violation
  | Return_data_oob
  | Code_too_large

type status = Returned of string | Reverted of string | Failed of fail_reason

exception Fail of fail_reason
exception Frame_done of status

(** Which frame-execution engine a context runs (DESIGN.md §11). *)
type engine =
  | Decoded
      (** Pre-decoded instruction stream ({!Decode.program}, cached per code
          hash) driven through a 256-entry handler table.  The default. *)
  | Legacy
      (** The original byte-at-a-time [match] dispatch.  Test-only: the
          differential battery ([@decode], the fuzz oracle) pins
          [Decoded] against it byte-for-byte. *)

(** Per-execution context shared by all frames of one transaction. *)
type ctx = {
  st : Statedb.t;
  benv : Env.block_env;
  origin : Address.t;
  gas_price : U256.t;
  engine : engine;
  spec : Spec.t;  (** the hardfork rule set (DESIGN.md §12) *)
  trace : Trace.sink option;
  mutable logs : Env.log list;  (** newest first; rolled back on revert *)
  mutable logs_len : int;
  mutable refund : int;
      (** SSTORE-clear refund counter; journaled alongside logs so inner
          reverts undo it.  Always 0 under refund-free specs. *)
  warm_accounts : unit Address.Tbl.t;
      (** EIP-2929 per-transaction account access set (access-list specs). *)
  warm_slots : unit Slot.Tbl.t;
      (** EIP-2929 per-transaction storage-slot access set. *)
  mutable steps_executed : int;
}

val make_ctx :
  ?engine:engine ->
  ?spec:Spec.t ->
  ?trace:Trace.sink ->
  Statedb.t ->
  Env.block_env ->
  origin:Address.t ->
  gas_price:U256.t ->
  ctx
(** [?engine] defaults to [Decoded], [?spec] to [!Spec.current].  The
    warm sets start empty; the
    processor seeds sender/target/prewarm via {!warm_entry}. *)

val warm_entry : ctx -> Address.t * U256.t option -> unit
(** Seed one entry-warm location: [(a, None)] warms the account,
    [(a, Some k)] warms one storage slot. *)

val max_stack : int
val max_depth : int
val max_code_size : int

(** {1 Precompiled contracts} *)

type precompile = P_sha256 | P_identity

val precompile_of : Address.t -> precompile option
val is_precompile : Address.t -> bool

val run_precompile : precompile -> string -> int * string
(** [(gas cost, output)]. *)

(** {1 Address derivation} *)

val create_address : Address.t -> int -> Address.t
(** [create_address sender nonce] — keccak of the RLP pair, low 160 bits. *)

val create2_address : Address.t -> U256.t -> string -> Address.t
(** [create2_address sender salt init_hash] — keccak of
    [0xff ++ sender ++ salt ++ init_hash], low 160 bits; [init_hash] is
    keccak256 of the initcode. *)

(** {1 Top-level messages (used by the transaction processor)} *)

type call_result = { success : bool; output : string; gas_left : int }

val call_message :
  ctx ->
  caller:Address.t ->
  target:Address.t ->
  value:U256.t ->
  data:string ->
  gas:int ->
  call_result
(** Transfer value and run the target's code (or precompile); on failure the
    journal is rolled back to entry. *)

val create_message :
  ctx -> caller:Address.t -> value:U256.t -> initcode:string -> gas:int -> call_result
(** Contract creation; on success [output] is the new 20-byte address.  The
    caller's nonce must already have been bumped (Ethereum derives the
    address from the pre-bump value). *)
