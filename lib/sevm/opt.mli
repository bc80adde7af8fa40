(** Dead-code elimination and rollback-free scheduling (paper §4.3).

    Liveness flows backwards from guards, the write set and the return-data
    pieces; anything unreachable is dead.  Instructions any guard depends on
    are scheduled before the guards, everything else after the last guard —
    so a constraint violation aborts with nothing to roll back. *)

type scheduled = {
  instrs : Ir.instr array;  (** constraint section, then fast path *)
  first_fast : int;
  dead_removed : int;
}

val schedule :
  Ir.instr array -> int -> reg_count:int -> Ir.write list -> Ir.piece list -> scheduled
(** [schedule instrs n ~reg_count writes output] schedules the first [n] of
    [instrs], in emission order, whose registers are all below
    [reg_count]. *)
