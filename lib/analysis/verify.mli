(** The static AP / S-EVM verifier: proves the fast-path invariants the
    paper's CD-Equiv argument (§4.3–4.4) relies on, instead of sampling for
    them with the fuzzer.

    Five checkers run as one pass over the {!Dataflow} views:

    - {b def-before-use}: every [Reg] operand is defined on every
      root→leaf path before use, and [reg_count] bounds all registers;
    - {b rollback-freedom}: no guard sits in the fast-path region or
      inside a straight-line block, all effects live in the deferred write
      set, and [Sevm.Opt.schedule]'s ordering holds — every
      constraint-section instruction exists to feed some guard;
    - {b guard coverage}: every read of mutable state in the constraint
      section transitively feeds a guard on every path, so any context
      change that could invalidate the speculation trips a constraint;
    - {b memo soundness}: each memo's [in_regs]/[out_regs] are exactly the
      segment's inputs/definitions, skipping commits every downstream-live
      definition, no memo spans a live state read, and replaying the
      segment through the executor's own arithmetic ({!Ap.Exec.compute})
      reproduces the recorded outputs;
    - {b well-formedness}: [P_reg] slices inside the 32-byte word, [Pack]
      assembling exactly 32 bytes, distinct branch case values.

    Obs counters (when the registry is enabled):
    ["analysis.programs_checked"], ["analysis.paths_checked"],
    ["analysis.violations_total"] and ["analysis.violations.<kind>"]. *)

exception Verification_failed of Report.violation list

val verify_path : Sevm.Ir.path -> Report.violation list
(** Check one synthesized linear path (pre-merging). *)

val verify : ?max_paths:int -> Ap.Program.t -> Report.violation list
(** Check a compiled program: structural invariants once per node, then
    the per-path checkers over every root→leaf enumeration (capped at
    [max_paths], default 4096).  Returns deduplicated violations; each
    names the path through the DAG and the offending instruction. *)

val verify_exn : Ap.Program.t -> unit
(** @raise Verification_failed on any violation. *)

val install_builder_hook : unit -> unit
(** Point {!Ap.Program.add_path_hook} at the verifier so every program the
    builder grows is checked as it is built: a violation raises
    {!Verification_failed} out of [add_path] (the test-suite mode). *)
