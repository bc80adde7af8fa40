(** Execution traces captured by the instrumented EVM — the input to
    Forerunner's program specializer (paper Fig. 6).

    Every executed instruction becomes a {!step} with the concrete values it
    consumed and produced, so a trace fixes one control-flow path and one
    set of data dependencies; call-family instructions additionally bracket
    their frames with {!Call_enter}/{!Call_exit}. *)

open State

type step = {
  pc : int;
  depth : int;
  ctx_address : Address.t;  (** storage context the instruction ran in *)
  op : Op.t;
  inputs : U256.t array;  (** stack operands, top of stack first *)
  outputs : U256.t array;  (** pushed results *)
}

type call_kind = C_call | C_callcode | C_delegate | C_static | C_create | C_create2

type call_info = {
  kind : call_kind;
  child_ctx : Address.t;
  child_code_addr : Address.t;
  child_code : string;
  transfer : U256.t option;  (** [Some v]: v moved from parent to child ctx *)
}

type exit_reason =
  | X_completed  (** the callee ran (possibly failing inside) *)
  | X_balance  (** transfer exceeded the caller's balance; never entered *)
  | X_depth  (** call-depth limit; never entered *)

type event =
  | Step of step
  | Call_enter of step * call_info
  | Call_exit of { success : bool; output : string; reason : exit_reason }

type sink = event -> unit

val collector : unit -> sink * (unit -> event array)
(** [let sink, get = collector ()]: pass [sink] to the interpreter, call
    [get] afterwards for the full trace. *)
