(** Accelerated Programs (paper §4.3–4.4): merged constraint sets, fast
    paths and memoization shortcuts.

    An AP is one tree of straight-line {!block}s joined by guard nodes;
    each guard both checks a constraint and case-branches between the
    futures merged into the program, so running an AP merged from N
    futures costs the same as running one.  A path that will not merge
    into the tree is dropped and counted on [ap.paths_dropped].  Blocks
    carry {!memo} shortcuts — remembered (input values → output values)
    pairs from each pre-execution — that let the executor skip whole
    segments when context values repeat. *)

module I = Sevm.Ir

type memo = {
  in_regs : int array;  (** registers the segment depends on *)
  in_vals : U256.t array;  (** values remembered from a pre-execution *)
  out_regs : int array;
  out_vals : U256.t array;  (** outputs committed when the inputs match *)
}

type block = {
  instrs : I.instr array;  (** compute/read instructions, no guards *)
  memos : memo list;  (** shortcut alternatives, one per future *)
}

type leaf = {
  fast : block list;  (** the fast path: everything no guard depends on *)
  writes : I.write list;  (** deferred effects, committed on completion *)
  status : Evm.Processor.status;
  gas_used : int;  (** the traced charge (exact for per-transaction paths) *)
  gas_used_src : I.operand option;
      (** template paths: the [In_gas_used] register holding the served
          transaction's recomputed charge; [None] otherwise *)
  gas_refund : int;  (** raw refund counter, surfaced into the receipt *)
  output : I.piece list;
}

(** What a guard node tests, and so what its case keys are. *)
type test =
  | Value of I.operand  (** the operand's value *)
  | Size of I.operand  (** the operand's byte size (EXP gas) *)
  | Warm of (State.Address.t * U256.t option)
      (** whether the location is warm on transaction entry (access-list
          specs, DESIGN.md §12): key 1 for warm, 0 for cold *)

type node =
  | Seq of block * node
  | Branch of test * (U256.t * node) list
      (** guard + case-branch; no matching case = constraint violation *)
  | Leaf of leaf

type t = {
  mutable root : node option;  (** the merged tree; [None] while empty *)
  mutable reg_count : int;
  mutable n_paths : int;  (** distinct control/data paths merged *)
  mutable n_futures : int;  (** pre-executions incorporated *)
  mutable shortcut_count : int;  (** memoization nodes across the program *)
  mutable fork : int;
      (** spec id every merged path was built under; -1 while empty.  The
          executor refuses to run the program under any other fork. *)
  mutable inputs : I.input_src array;
      (** template input registers (lib/apstore): register [i] is
          pre-seeded from the transaction being served via
          [Sevm.Ir.bind_inputs].  Fixed by the first path like [fork];
          paths with different inputs are dropped.  [[||]] for ordinary
          per-transaction programs. *)
}

val create : unit -> t

val add_path : t -> I.path -> unit
(** Incorporate one more synthesized path: merge it into the tree where
    the instruction streams agree (they diverge only at guards), or drop
    it.  The first path fixes the program's fork and inputs; a later path
    built under a different spec or inputs, or one that will not merge, is
    dropped and counted on the [ap.paths_dropped] [Obs] counter.  Calls
    {!add_path_hook} on the grown program before returning; a dropped path
    leaves the program as it was. *)

val add_path_hook : (t -> unit) ref
(** Self-check hook run at the end of every {!add_path} that merges its
    path.  The static verifier (lib/analysis) installs itself here in
    tests, raising so a miscompiled program fails loudly at build time.
    Defaults to a no-op. *)

val block_io : I.instr array -> int array * int array
(** [(inputs, outputs)] of one instruction run: registers read before being
    defined (in first-use order) and registers defined (sorted).  This is
    the contract each memo's [in_regs]/[out_regs] must match — exposed so
    the verifier checks memos against the same definition the builder
    used. *)

val merge_block : block -> block -> block option
(** Merge identical instruction blocks, pooling their memo alternatives
    (capped at {!max_memo_alternatives}). *)

val max_memo_alternatives : int

val instr_count : t -> int
(** Total S-EVM instructions across the program (for Fig. 15-style stats). *)

val fingerprint : t -> string
(** A 32-byte structural digest of the whole program (tree, memos, counts).
    Structurally identical programs digest identically, independent of how
    they were built — the parallel-speculation oracle uses this to assert
    that worker-domain and sequential speculation produce byte-identical
    APs. *)
