(** Trace-based program specialization (paper §4.3, Fig. 6).

    [build] replays a recorded EVM trace symbolically and produces a linear
    accelerated path: one constraint set plus one fast path, in the S-EVM
    register IR.  The single pass performs complex-instruction
    decomposition, stack→register SSA translation, register promotion
    (stack, memory, storage, environment), control-flow elimination,
    constant folding, common-subexpression elimination and constraint
    generation; a second pass does dead-code elimination and rollback-free
    scheduling (all effects after the last guard). *)

exception Unsupported of string

val build :
  ?spec:Spec.t ->
  ?prewarm:(State.Address.t * U256.t option) list ->
  ?template:bool ->
  Evm.Env.tx ->
  Evm.Env.block_env ->
  Evm.Trace.event array ->
  Evm.Processor.receipt ->
  State.Statedb.t ->
  (Ir.path, string) result
(** [build tx benv trace receipt pre_state] synthesizes the accelerated path
    for one pre-execution of [tx].

    - [benv] is the speculated block environment the trace ran in;
    - [receipt] is the traced execution's result (status, gas, output);
    - [pre_state] must expose the state {e as of just before} the traced
      execution (callers snapshot, execute with tracing, then revert).

    [?spec] (default [!Spec.current]) and [?prewarm] must be exactly what
    the traced execution ran under: the path is stamped with the spec's
    fork id, and under access-list specs a [Ir.Guard_warm] pins the entry
    warmth of each first-touched location (plus a zeroness guard per
    variable SSTORE value under refund specs), so replay in a colder or
    warmer context falls back via guard violation instead of inheriting
    the traced gas.

    [?template] (default [false]) builds a {e template} path for the
    shared AP store (lib/apstore, DESIGN.md §13): the caller-varying
    transaction fields — sender, value, nonce, gas price and the ABI
    calldata words past the 4-byte selector — are promoted from baked-in
    constants to input registers recorded in [Ir.path.inputs], which
    [Ap.Exec.bind_inputs] seeds from whatever transaction the template is
    later served to.  Storage keys and balance addresses derived from
    those inputs stay symbolic ([Ir.R_storage_dyn]/[Ir.W_storage_dyn],
    operand-addressed balance writes) with pairwise aliasing guards
    pinning their equality pattern.  Template builds reject creations,
    precompile targets, invalid receipts and non-empty [?prewarm] hints.

    Returns [Error reason] for the few transaction shapes specialization
    does not cover (a nested CREATE/CREATE2, [SELFDESTRUCT]) and for
    traces that do not match the symbolic state (e.g. a stack underflow)
    — such transactions simply run without an AP, like the paper's missed
    predictions.  Top-level creations are built. *)

val count_trace_len : Evm.Trace.event array -> int
(** Number of executed EVM instructions recorded in a trace. *)
