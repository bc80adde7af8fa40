(** Analysis of replay results into the paper's tables and figures.

    Speedups are per-transaction ratios against a baseline replay of the
    same recorded traffic, paired by transaction hash over the canonical
    chain — the effective speedup averages over heard transactions (§5.3),
    the end-to-end speedup over all of them. *)

type joined = { t : Node.tx_record; base_ns : int }

val join : baseline:Node.result -> Node.result -> joined list
val speedup : joined -> float
val is_hit : joined -> bool

(** {1 Table 2} *)

type policy_summary = {
  name : string;
  effective_speedup : float;
  e2e_speedup : float;
  satisfied_pct : float;
  satisfied_weighted_pct : float;  (** weighted by baseline execution time *)
  hits : int;
  heard : int;
  total : int;
}

val summarize : baseline:Node.result -> Node.result -> policy_summary

(** {1 Table 3} *)

type outcome_row = { label : string; tx_pct : float; weighted : float; speedup_ : float }

val outcome_breakdown : baseline:Node.result -> Node.result -> outcome_row list

(** {1 Figures 11–13} *)

val speedup_histogram :
  baseline:Node.result -> Node.result -> bucket_width:int -> max_bucket:int -> int array * int

val gas_speedup_buckets : baseline:Node.result -> Node.result -> (int * float * int) list
val gas_bucket_label : int -> string
val heard_delay_rcdf : Netsim.Record.t -> points:int list -> (int * float) list

(** {1 Table 1} *)

type dataset_row = {
  tag : string;
  blocks : int;
  tx_count : int;
  heard_pct : float;
  heard_weighted_pct : float;
}

val dataset_summary : tag:string -> Netsim.Record.t -> Node.result -> dataset_row

(** {1 Figure 15 / §5.5 / §5.6} *)

type synthesis_report = {
  n_paths : int;
  avg_trace_len : float;
  pct_stack : float;
  pct_mem : float;
  pct_control : float;
  pct_state : float;
  pct_decomposed : float;
  pct_folded : float;
  pct_cse : float;
  pct_dead : float;
  pct_guards : float;
  pct_sevm : float;
  pct_ap : float;
  pct_constraint : float;
  pct_fastpath : float;
  avg_ap_len : float;
}

val synthesis_report : Node.result -> synthesis_report

type ap_shape = {
  paths_1 : float;
  paths_2 : float;
  paths_3 : float;
  paths_more : float;
  paths_more_avg : float;
  ctx_1 : float;
  ctx_2 : float;
  ctx_3 : float;
  ctx_more : float;
  ctx_more_avg : float;
  avg_shortcuts : float;
  skip_pct : float;
}

val ap_shape : Node.result -> ap_shape

type overhead = {
  spec_to_exec_ratio : float;
  spec_total_ms : float;
  contexts_total : int;
  build_errors : int;
  heap_mb : float;
}

val overhead : Node.result -> overhead

(** {1 Report}

    One printer per table and figure of the paper's evaluation (§5).  Each
    writes a heading line naming its table or figure, then its rows, and
    flushes [ppf].  [forerunner compare] calls all of them on the replays
    of one record. *)

val pp_table1 : Format.formatter -> tag:string -> Netsim.Record.t -> baseline:Node.result -> unit
(** This record's Table 1 row: blocks, fork blocks, txs, % heard. *)

val pp_fig11 : Format.formatter -> Netsim.Record.t -> unit

val pp_table2 : Format.formatter -> baseline:Node.result -> Node.result list -> unit
(** A fixed baseline row, then one row per run (Fig. 14's columns too). *)

val pp_table3 : Format.formatter -> baseline:Node.result -> Node.result -> unit
val pp_fig12 : Format.formatter -> baseline:Node.result -> Node.result -> unit
val pp_fig13 : Format.formatter -> baseline:Node.result -> Node.result -> unit
val pp_fig15 : Format.formatter -> Node.result -> unit
val pp_sec55 : Format.formatter -> Node.result -> unit

val pp_sec56 : Format.formatter -> Node.result -> unit
(** Includes the process heap at print time, which is not deterministic. *)

val pp_ablation :
  Format.formatter -> baseline:Node.result -> (string * Node.result) list -> unit
(** One row per labelled Forerunner variant. *)
