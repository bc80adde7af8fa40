(** The dataflow substrate of the verifier: a uniform linear view — a
    {!line} — over both S-EVM instruction streams ([Sevm.Ir.path]) and
    root→leaf paths through compiled AP DAGs ([Ap.Program.t]).

    Every step of a line carries the site trail that reaches it
    ("root>br#1[=0x5]>seq#2>i#3"), so checkers that walk lines report
    path-level diagnostics for free.  Guards appear as {!S_guard} steps
    whether they came from a linear guard instruction or from a [Branch]
    node, which is what lets one set of checkers cover both
    representations. *)

module I = Sevm.Ir
module P = Ap.Program

type step =
  | S_instr of I.instr  (** compute / read; never [Guard] in a valid program *)
  | S_guard of I.operand * string
      (** a constraint on [operand]; the string renders the expected value *)

type memo_site = {
  m_site : string;  (** trail of the memoized block *)
  m_block : P.block;
  m_end : int;  (** step index just past the block on this line *)
}

type line = {
  origin : string;  (** "path" for linear paths, the leaf trail for AP paths *)
  steps : (string * step) array;  (** (site, step), in execution order *)
  first_fast : int;  (** index of the first fast-path step *)
  writes : I.write list;
  writes_site : string;
  output : I.piece list;
  output_site : string;
  memo_sites : memo_site list;  (** memoized blocks crossed, in order *)
}

val step_uses : step -> int list
val step_def : step -> int option
val pp_step : Format.formatter -> step -> unit

val mutable_read_src : I.read_src -> bool
(** True for reads whose value can change between speculation and
    execution (storage, balances, nonces, block hashes, code): exactly the
    reads guard coverage must account for.  Pure block-env reads
    (timestamp, number, …) are pinned by the block being executed. *)

val case_label : P.test -> U256.t -> string
(** The trail label of one guard-node case: ["=0x5"], ["size=3"] or
    ["warm=true"]. *)

val of_path : I.path -> line
(** The linear view of one synthesized path (no memos yet at this stage). *)

val lines_of_program : ?max_paths:int -> P.t -> line list * bool
(** Every root→leaf path of the program as a line, plus a truncation flag
    set when enumeration stopped at [max_paths] (default 4096). *)
