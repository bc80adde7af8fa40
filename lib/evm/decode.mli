(** One-time bytecode decoding: the pre-decoded instruction stream the
    table-driven interpreter executes (DESIGN.md §11).

    A {!program} is decoded once per code hash and cached process-wide:
    every byte position of the code gets a flat {!instr} record carrying
    the opcode id, the PUSH immediate already materialized as a {!U256.t}
    (truncated tails zero-padded exactly like the legacy loop), and one
    packed word holding the dispatch id, the static gas charge hoisted
    from {!Spec.static_gas} and the two precomputed stack bounds that
    collapse per-step validation to two comparisons.
    The JUMPDEST bitmap is folded into the same cached artifact, so
    CALL-family re-entry reuses one decoded object instead of re-scanning
    code. *)

type instr = {
  op_id : int;  (** raw opcode byte; table index for dispatch *)
  op : Op.t;  (** decoded opcode ({!Op.INVALID} for unassigned bytes) *)
  imm : U256.t;  (** PUSH immediate, zero-padded on truncation; zero otherwise *)
  imm_i : int;  (** [imm] as a native int, or -1 when it does not fit — lets
                    fused handlers skip [U256.to_int_opt] on offsets/targets *)
  next : int;  (** fall-through pc: one past the opcode and its immediate *)
  meta : int;  (** the dispatch scalars packed into one int — bits 0..9
                   [xop], 10..14 [stack_in], 15..25 [min max_sp 2047],
                   26..40 [static_gas], 41 [steps] — so the untraced hot
                   loop issues one load per step; read them through the
                   accessors below *)
}

val meta_xop : int -> int
(** Dispatch id for the untraced engine: [op_id], or [0x100 + successor_id]
    for a PUSH fused with the instruction that consumes it (see
    {!fusable_ids}), or [0x200 + third_id] for a certified PUSH-PUSH-op
    triple (see {!triple_ids}). *)

val meta_stack_in : int -> int
(** Underflow iff [sp < stack_in]. *)

val meta_max_sp : int -> int
(** Overflow iff [sp > max_sp]; clamped to 2047, which [sp] never reaches. *)

val meta_static_gas : int -> int
(** Hoisted {!Spec.static_gas} (0 for unassigned and unavailable bytes). *)

val meta_steps : int -> int
(** Contribution to [steps_executed]: 1, or 0 for unassigned and
    unavailable bytes. *)

type program = {
  code : string;
  code_hash : string;  (** cache key (keccak256 of [code]) *)
  instrs : instr array;  (** dense: [instrs.(pc)] decodes [code] at byte [pc] *)
  jumpdests : bool array;  (** JUMPDEST positions, push data skipped *)
  leaders : bool array;
      (** basic-block leaders: pc 0, every JUMPDEST and the instruction
          after each JUMPI.  No jump lands anywhere else, so windows with
          no leader inside are straight-line; lib/bca's CFG reads the same
          bitmap. *)
}

val max_stack : int
(** 1024, shared with the interpreter's frame stacks. *)

val fusable_ids : int list
(** Successor opcode ids a PUSH is fused with at decode time (ADD, SUB,
    comparisons, bitops, shifts, MLOAD/MSTORE, SLOAD, JUMP/JUMPI, SWAP1).
    The interpreter installs a fused handler at table slot [0x100 + id]
    for exactly this set; all members satisfy [stack_out <= stack_in], so
    a fused pair can never overflow past the already-validated PUSH. *)

val static_gas_of_byte : Spec.t -> int -> int
(** The hoisted per-byte static charge exactly as stored in instructions
    decoded under [spec] — the gas-table tests pin the Istanbul column
    against literal class charges and every fork's column against the
    spec's resolved table. Unassigned and unavailable bytes charge 0. *)

val triple_ids : int list
(** Third opcodes of a certified PUSH-PUSH-op triple (table slot
    [0x200 + id]): binops/shifts/MSTORE whose static charge is
    fork-invariant. *)

val invalid_xop : int
(** Dispatch id given to opcodes unavailable under the decoding spec: a
    permanently unassigned slot, so both dispatch tables raise through
    their default handler with the instr's [op_id] as payload. *)

val analyze_jumpdests : string -> bool array
(** The JUMPDEST bitmap alone (push data skipped), without decoding. *)

val decode : hash:string -> spec:Spec.t -> string -> program
(** Decode [code] under [spec], bypassing the cache.  [hash] is
    keccak256 of the code (the account's stored code hash); it is stored,
    not checked.  PUSH-op pairs always fuse; PUSH-PUSH-op triples fuse
    when no leader falls inside the window. *)

val cache_key : hash:string -> spec:Spec.t -> string
(** Code hash × spec id: the key of this cache and of the analysis facts'. *)

val get : hash:string -> spec:Spec.t -> string -> program
(** Cached decode, keyed by {!cache_key} — two specs never share an
    artifact (static gas and opcode availability are baked into the
    stream). Domain-safe, shared by all contexts and worker domains.
    Holds 4096 programs, least recently used evicted first.  Counted
    through [interp.decode.{hits,misses,evictions,bytes}]. *)

val cache_size : unit -> int
(** Number of decoded programs currently cached (for tests/metrics). *)

val clear_cache : unit -> unit
(** Drop every cached program (tests). *)
