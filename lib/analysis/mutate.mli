(** Seeded miscompilations for the verifier's negative tests: each mutation
    models a realistic builder/executor bug and must be rejected by the
    matching checker (see [Fuzz.Runner.rejected_by]). *)

val drop_guard : ?index:int -> Sevm.Ir.path -> Sevm.Ir.path option
(** Remove the [index]-th guard (default: the first — the nonce guard every
    built path carries) from the constraint section.  The reads and
    computes that fed only that guard become unguarded, so the
    guard-coverage checker must reject the result ([None] if the path has
    fewer guards than [index+1]). *)
