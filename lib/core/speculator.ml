(* The speculator (paper §4.3): pre-execute a transaction in each predicted
   future context with the instrumented EVM, synthesize one accelerated
   path per trace, and merge them into the transaction's AP.  The read set
   of each pre-execution feeds the prefetcher. *)

open State

(* Summed per-path synthesis statistics (for Fig. 15 / §5.5). *)
type synth_acc = {
  mutable paths_built : int;
  mutable sum : Sevm.Ir.stats;
}

let empty_acc () = { paths_built = 0; sum = Sevm.Ir.empty_stats }

(* Everything Forerunner knows about one pending transaction. *)
type spec = {
  ap : Ap.Program.t;
  mutable paths : Sevm.Ir.path list; (* raw paths, for perfect-match checking *)
  mutable touches : Statedb.touch list; (* union of pre-execution read sets *)
  mutable ready_at : float; (* sim time when the AP became usable *)
  mutable contexts : int; (* distinct future contexts pre-executed *)
  mutable build_errors : int;
  mutable spec_time_ns : int; (* total time spent speculating, off critical path *)
  mutable base_exec_ns : int; (* time of the plain pre-executions (for §5.6) *)
  mutable spec_gas : int; (* gas burned by pre-executions (readiness cost model) *)
  synth : synth_acc;
  (* Template-store fields (lib/apstore).  [template_key] is written by the
     node on its own thread before the speculation job is submitted (the
     store's single-flight reservation); a worker that holds it builds a
     second, template-mode path per context into a fresh program and
     publishes the pointer through [template_ready] as its last act on
     that program — after the write the program is immutable, so the node
     thread can hand whatever version it observes to the store. *)
  mutable template_key : string option;
  mutable template_ready : Ap.Program.t option;
  mutable template_published : bool; (* node thread only *)
}

let create_spec () =
  {
    ap = Ap.Program.create ();
    paths = [];
    touches = [];
    ready_at = infinity;
    contexts = 0;
    build_errors = 0;
    spec_time_ns = 0;
    base_exec_ns = 0;
    spec_gas = 0;
    synth = empty_acc ();
    template_key = None;
    template_ready = None;
    template_published = false;
  }

let max_paths_kept = 16

let obs_contexts = Obs.counter "speculator.contexts_built"
let obs_build_errors = Obs.counter "speculator.build_errors"
let obs_paths = Obs.counter "speculator.paths_synthesized"
let obs_build_ns = Obs.histogram "speculator.context_build_ns"
let obs_tmpl_paths = Obs.counter "speculator.template_paths"
let obs_tmpl_errors = Obs.counter "speculator.template_errors"

(* Pre-execute [tx] in one future context and fold the result into [spec].
   [bk]/[root] give the chain head state; [pre_txs] are the predicted
   preceding transactions.  When [tmpl] is given, the same trace is also
   lifted into a template path (input registers instead of baked tx
   constants) and merged into it. *)
let speculate_one ~tmpl spec bk ~root (env : Evm.Env.block_env) ~pre_txs (tx : Evm.Env.tx) =
  let t0 = Obs.now_ns () in
  let st = Statedb.create bk ~root in
  List.iter
    (fun t ->
      let (r : Evm.Processor.receipt) = Evm.Processor.execute_tx st env t in
      spec.spec_gas <- spec.spec_gas + r.gas_used)
    pre_txs;
  (* capture the target's read set for the prefetcher *)
  Statedb.set_tracking st true;
  Statedb.clear_touches st;
  let snap = Statedb.snapshot st in
  let sink, get = Evm.Trace.collector () in
  let t1 = Obs.now_ns () in
  let (receipt : Evm.Processor.receipt) = Evm.Processor.execute_tx ~trace:sink st env tx in
  spec.base_exec_ns <- spec.base_exec_ns + Int64.to_int (Int64.sub (Obs.now_ns ()) t1);
  spec.spec_gas <- spec.spec_gas + receipt.gas_used;
  Statedb.revert st snap;
  Statedb.set_tracking st false;
  spec.touches <- Statedb.touches st @ spec.touches;
  spec.contexts <- spec.contexts + 1;
  Obs.incr obs_contexts;
  let events = get () in
  (match Sevm.Builder.build tx env events receipt st with
  | Ok path ->
    spec.synth.paths_built <- spec.synth.paths_built + 1;
    spec.synth.sum <- Sevm.Ir.add_stats spec.synth.sum path.stats;
    Ap.Program.add_path spec.ap path;
    Obs.incr obs_paths;
    if List.length spec.paths < max_paths_kept then spec.paths <- spec.paths @ [ path ]
  | Error _ ->
    spec.build_errors <- spec.build_errors + 1;
    Obs.incr obs_build_errors);
  (match tmpl with
  | None -> ()
  | Some tp -> (
    (* second pass over the same trace, tx fields lifted to inputs *)
    match Sevm.Builder.build ~template:true tx env events receipt st with
    | Ok path ->
      Ap.Program.add_path tp path;
      Obs.incr obs_tmpl_paths
    | Error _ -> Obs.incr obs_tmpl_errors));
  let elapsed = Int64.to_int (Int64.sub (Obs.now_ns ()) t0) in
  Obs.observe_int obs_build_ns elapsed;
  spec.spec_time_ns <- spec.spec_time_ns + elapsed

(* Readiness cost model: the AP becomes usable once the speculation work
   completes after [now], where "work" is the gas the pre-executions burned
   at a fixed modelled execution speed (20M gas/s, the ballpark of geth on
   the paper's testbed).  Gas, not measured wall time: readiness in
   *simulated* time must be a function of the work, not of the replaying
   host's instantaneous load — otherwise a contended host (or the worker
   domains of `--jobs N`) would flip hit/miss outcomes and replays would
   not be reproducible across machines.  Wall time is still measured into
   [spec_time_ns]/[base_exec_ns] for the §5.6 overhead accounting. *)
let ns_per_gas = 50.0

let speculate spec bk ~root ~now contexts tx =
  let g0 = spec.spec_gas in
  (* Build the template once per entry (the first job that gets this far):
     one template per key is all the store keeps, and the first version is
     as good as any — every same-key transaction it serves re-binds the
     lifted inputs anyway.  The fresh program is published through
     [template_ready] only after its last [add_path], so readers never see
     a program that is still being mutated. *)
  let tmpl =
    if spec.template_key <> None && spec.template_ready = None then
      Some (Ap.Program.create ())
    else None
  in
  List.iter (fun (env, pre_txs) -> speculate_one ~tmpl spec bk ~root env ~pre_txs tx) contexts;
  (match tmpl with
  | Some tp when tp.roots <> [] -> spec.template_ready <- Some tp
  | Some _ | None -> ());
  let elapsed_s = float_of_int (spec.spec_gas - g0) *. ns_per_gas /. 1e9 in
  let candidate = now +. elapsed_s in
  if candidate < spec.ready_at then spec.ready_at <- candidate
  else spec.ready_at <- min spec.ready_at candidate
