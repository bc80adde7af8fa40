(** Violation reports for the static AP / S-EVM verifier.

    Each violation names the invariant class it breaks, the site — a trail
    through the program ("root>br#1[=0x5]>seq#2>i#3") or through a linear
    path ("i#7") — and a human-readable account of the offending
    instruction, so a rejected program is debuggable without re-running
    anything. *)

type kind =
  | Def_before_use
      (** a [Reg] operand is read on some root→leaf path before any
          instruction on that path defines it *)
  | Reg_bounds  (** a register id falls outside [0, reg_count) *)
  | Rollback_freedom
      (** a guard sits where a failure could not roll back: inside the
          fast-path region or inside a straight-line block — or a
          constraint-section instruction serves no guard, violating
          [Sevm.Opt.schedule]'s constraint-before-fast-path ordering *)
  | Guard_coverage
      (** a read of mutable state in the constraint section feeds no guard
          on some path: a context change there would go undetected *)
  | Memo_soundness
      (** a memoization shortcut whose skip is not equivalent to running
          the segment: wrong in/out register sets, values that disagree
          with replaying the segment, or a memo over a live state read *)
  | Well_formedness
      (** local structure: [P_reg] slices outside the 32-byte word,
          duplicate branch case values, metadata size mismatches *)

val kind_name : kind -> string
(** Stable snake_case name, also used for the per-kind Obs counters. *)

val all_kinds : kind list

type violation = { kind : kind; site : string; detail : string }

val pp : Format.formatter -> violation -> unit
val pp_list : Format.formatter -> violation list -> unit
