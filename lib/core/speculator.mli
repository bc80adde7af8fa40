(** The speculator (paper §4.3): pre-execute a pending transaction in each
    predicted future context with the instrumented EVM, synthesize one
    accelerated path per trace and merge them into the transaction's AP;
    capture the read sets for the prefetcher. *)

(** Summed per-path synthesis statistics (Fig. 15 / §5.5). *)
type synth_acc = { mutable paths_built : int; mutable sum : Sevm.Ir.stats }

val empty_acc : unit -> synth_acc

(** Everything Forerunner knows about one pending transaction. *)
type spec = {
  ap : Ap.Program.t;
  mutable paths : Sevm.Ir.path list;  (** raw paths, for perfect matching *)
  mutable touches : State.Statedb.touch list;  (** union of read sets *)
  mutable ready_at : float;  (** sim time when the AP became usable *)
  mutable contexts : int;  (** future contexts pre-executed so far *)
  mutable build_errors : int;  (** traces specialization couldn't cover *)
  mutable spec_time_ns : int;  (** wall time spent speculating *)
  mutable base_exec_ns : int;  (** plain-execution share (for §5.6) *)
  mutable spec_gas : int;  (** gas burned pre-executing (readiness model) *)
  synth : synth_acc;
  mutable template_key : string option;
      (** lib/apstore single-flight reservation held by this entry; set by
          the node (producer thread) before submission.  [Some _] asks the
          speculation job to also build a template-mode AP. *)
  mutable template_ready : Ap.Program.t option;
      (** the finished template, written once by the worker as its last
          action on the program — immutable afterwards, so the node thread
          may publish whichever version it observes *)
  mutable template_published : bool;  (** node thread only *)
}

val create_spec : unit -> spec

val speculate :
  spec ->
  State.Statedb.Backend.t ->
  root:string ->
  now:float ->
  (Evm.Env.block_env * Predictor.pending list) list ->
  Evm.Env.tx ->
  unit
(** Pre-execute [tx] in every given future context against the chain head
    at [root], folding results into [spec].  The AP becomes ready once the
    speculation work completes after [now], under a deterministic cost
    model (gas burned at a fixed modelled execution speed) so replay
    outcomes are reproducible across hosts and across [--jobs] settings. *)
