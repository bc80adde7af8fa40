(** Execution traces captured by the instrumented EVM — the input to
    Forerunner's program specializer (paper Fig. 6, "Traced pre-execution").

    Every executed instruction becomes a {!step} carrying the concrete values
    it consumed and produced, so the trace fixes one control-flow path and
    one set of data dependencies. *)

open State

type step = {
  pc : int;
  depth : int;
  ctx_address : Address.t;  (** storage context the instruction ran in *)
  op : Op.t;
  inputs : U256.t array;  (** stack operands, top of stack first *)
  outputs : U256.t array;  (** pushed results, top of stack first *)
}

type call_kind = C_call | C_callcode | C_delegate | C_static | C_create | C_create2

type call_info = {
  kind : call_kind;
  child_ctx : Address.t;
  child_code_addr : Address.t;
  child_code : string;
  transfer : U256.t option;  (** [Some v]: v moved from parent ctx to child ctx *)
}

type exit_reason =
  | X_completed  (** the callee frame ran (possibly failing inside) *)
  | X_balance  (** transfer value exceeded the caller's balance; never entered *)
  | X_depth  (** call depth limit; never entered *)

type event =
  | Step of step
  | Call_enter of step * call_info  (** the CALL/CREATE-family step, inputs filled *)
  | Call_exit of { success : bool; output : string; reason : exit_reason }

type sink = event -> unit

(** Collect a full trace into an array.  Events are consed newest first
    and [get] fills the array from its end, so the list is never copied. *)
let collector () =
  let events = ref [] and n = ref 0 in
  let sink e =
    events := e :: !events;
    incr n
  in
  let get () =
    match !events with
    | [] -> [||]
    | newest :: _ ->
      let a = Array.make !n newest in
      List.iteri (fun i e -> a.(!n - 1 - i) <- e) !events;
      a
  in
  (sink, get)
