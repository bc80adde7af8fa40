(* Analysis of replay results into the paper's tables and figures.

   Speedups are per-transaction ratios against a baseline replay of the same
   recorded traffic, exactly as the paper pairs a Forerunner node with the
   official geth on identical traffic:
   - effective speedup: mean per-tx speedup over heard transactions (§5.3);
   - end-to-end speedup: mean over all transactions;
   - weighted percentages weight each transaction by its baseline execution
     time (the paper's "% weighted"). *)

type joined = {
  t : Node.tx_record;
  base_ns : int; (* baseline execution time of the same tx *)
}

(* Pair a policy run with the baseline run over tx hashes. *)
let join ~(baseline : Node.result) (run : Node.result) : joined list =
  let base = Hashtbl.create 4096 in
  List.iter
    (fun (t : Node.tx_record) -> if t.canonical then Hashtbl.replace base t.hash t.exec_ns)
    baseline.txs;
  List.filter_map
    (fun (t : Node.tx_record) ->
      if not t.canonical then None
      else
        match Hashtbl.find_opt base t.hash with
        | Some b when b > 0 && t.exec_ns > 0 -> Some { t; base_ns = b }
        | Some _ | None -> None)
    run.txs

let speedup j = float_of_int j.base_ns /. float_of_int j.t.exec_ns
let is_hit j = match j.t.outcome with Node.O_perfect | Node.O_imperfect -> true | Node.O_missed | Node.O_unheard -> false
let mean = function [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
let fsum = List.fold_left ( +. ) 0.0
let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

(* Time-weighted percentage: fraction of total baseline time covered. *)
let weighted_pct part whole =
  let w l = fsum (List.map (fun j -> float_of_int j.base_ns) l) in
  if whole = [] then 0.0 else 100.0 *. w part /. w whole

(* ---- Table 2 rows ---- *)

type policy_summary = {
  name : string;
  effective_speedup : float; (* heard txs *)
  e2e_speedup : float; (* all txs *)
  satisfied_pct : float; (* hits / heard *)
  satisfied_weighted_pct : float;
  hits : int;
  heard : int;
  total : int;
}

let summarize ~baseline (run : Node.result) =
  let js = join ~baseline run in
  let heard = List.filter (fun j -> j.t.heard) js in
  let hits = List.filter is_hit heard in
  {
    name = Node.policy_name run.policy;
    effective_speedup = mean (List.map speedup heard);
    e2e_speedup = mean (List.map speedup js);
    satisfied_pct = pct (List.length hits) (List.length heard);
    satisfied_weighted_pct = weighted_pct hits heard;
    hits = List.length hits;
    heard = List.length heard;
    total = List.length js;
  }

(* ---- Table 3: breakdown by prediction outcome ---- *)

type outcome_row = { label : string; tx_pct : float; weighted : float; speedup_ : float }

let outcome_breakdown ~baseline (run : Node.result) =
  let js = join ~baseline run in
  let heard = List.filter (fun j -> j.t.heard) js in
  let bucket o = List.filter (fun j -> j.t.outcome = o) heard in
  let row label l =
    {
      label;
      tx_pct = pct (List.length l) (List.length heard);
      weighted = weighted_pct l heard;
      speedup_ = mean (List.map speedup l);
    }
  in
  [ row "satisfied/perfect" (bucket Node.O_perfect);
    row "satisfied/imperfect" (bucket Node.O_imperfect);
    row "unsatisfied/missed" (bucket Node.O_missed) ]

(* ---- Fig. 12: per-tx speedup distribution over heard txs ---- *)

let speedup_histogram ~baseline (run : Node.result) ~bucket_width ~max_bucket =
  let js = List.filter (fun j -> j.t.heard) (join ~baseline run) in
  let n_buckets = (max_bucket / bucket_width) + 2 in
  let counts = Array.make n_buckets 0 in
  List.iter
    (fun j ->
      let s = speedup j in
      let b =
        if s < 1.0 then 0
        else if s >= float_of_int max_bucket then n_buckets - 1
        else 1 + (int_of_float s / bucket_width)
      in
      counts.(b) <- counts.(b) + 1)
    js;
  (counts, List.length js)

(* ---- Fig. 13: gas used vs average speedup (hits only) ---- *)

let gas_speedup_buckets ~baseline (run : Node.result) =
  let js = List.filter is_hit (join ~baseline run) in
  (* logarithmic gas buckets *)
  let bucket_of g =
    let rec go b lim = if g < lim || b >= 8 then b else go (b + 1) (lim * 2) in
    go 0 30_000
  in
  let table = Hashtbl.create 8 in
  List.iter
    (fun j ->
      let b = bucket_of j.t.gas_used in
      let speeds, count = match Hashtbl.find_opt table b with Some x -> x | None -> (0.0, 0) in
      Hashtbl.replace table b (speeds +. speedup j, count + 1))
    js;
  List.sort compare (Hashtbl.fold (fun b (s, c) acc -> (b, s /. float_of_int c, c) :: acc) table [])

let gas_bucket_label b =
  let lo = if b = 0 then 0 else 30_000 * (1 lsl (b - 1)) in
  let hi = 30_000 * (1 lsl b) in
  if b >= 8 then Printf.sprintf ">=%d" lo else Printf.sprintf "%d-%d" lo hi

(* ---- Fig. 11: reverse CDF of heard delay ---- *)

let heard_delay_rcdf (record : Netsim.Record.t) ~points =
  let _, _, delays = Netsim.Record.heard_stats record in
  let n = List.length delays in
  let sorted = Array.of_list (List.sort compare delays) in
  (* binary search for the first delay > xf: everything after it exceeds the
     threshold, so each point costs O(log n) instead of a full scan *)
  let first_above xf =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) > xf then hi := mid else lo := mid + 1
    done;
    !lo
  in
  List.map
    (fun x ->
      let xf = float_of_int x in
      (x, 100.0 *. float_of_int (n - first_above xf) /. float_of_int (max 1 n)))
    points

(* ---- Table 1 rows ---- *)

type dataset_row = {
  tag : string;
  blocks : int;
  tx_count : int;
  heard_pct : float;
  heard_weighted_pct : float;
}

let dataset_summary ~tag (record : Netsim.Record.t) (baseline : Node.result) =
  let canon = List.filter (fun (t : Node.tx_record) -> t.canonical) baseline.txs in
  let heard = List.filter (fun (t : Node.tx_record) -> t.heard) canon in
  let w l = fsum (List.map (fun (t : Node.tx_record) -> float_of_int t.exec_ns) l) in
  {
    tag;
    blocks = record.n_blocks;
    tx_count = record.n_txs;
    heard_pct = pct (List.length heard) (List.length canon);
    heard_weighted_pct = (if canon = [] then 0.0 else 100.0 *. w heard /. w canon);
  }

(* ---- Fig. 15: code reduction during AP synthesis ---- *)

type synthesis_report = {
  n_paths : int;
  avg_trace_len : float;
  (* all the following as a percentage of the EVM trace length, like the
     paper's waterfall *)
  pct_stack : float;
  pct_mem : float;
  pct_control : float;
  pct_state : float;
  pct_decomposed : float;
  pct_folded : float;
  pct_cse : float;
  pct_dead : float;
  pct_guards : float;
  pct_sevm : float; (* size after conversion, before optimization *)
  pct_ap : float; (* final AP path size *)
  pct_constraint : float;
  pct_fastpath : float;
  avg_ap_len : float;
}

let synthesis_report (run : Node.result) =
  let s = run.synth.sum in
  let n = max 1 run.synth.paths_built in
  let tl = float_of_int (max 1 s.evm_trace_len) in
  let p x = 100.0 *. float_of_int x /. tl in
  let ap_len = s.constraint_len + s.fastpath_len in
  {
    n_paths = run.synth.paths_built;
    avg_trace_len = float_of_int s.evm_trace_len /. float_of_int n;
    pct_stack = p s.stack_eliminated;
    pct_mem = p s.mem_eliminated;
    pct_control = p s.control_eliminated;
    pct_state = p s.state_eliminated;
    pct_decomposed = p s.decomposed_added;
    pct_folded = p s.const_folded;
    pct_cse = p s.cse_removed;
    pct_dead = p s.dead_removed;
    pct_guards = p s.guards_added;
    pct_sevm =
      p (ap_len + s.dead_removed + s.const_folded + s.cse_removed - s.guards_added);
    pct_ap = p ap_len;
    pct_constraint = p s.constraint_len;
    pct_fastpath = p s.fastpath_len;
    avg_ap_len = float_of_int ap_len /. float_of_int n;
  }

(* ---- §5.5 distributions ---- *)

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
  skip_pct : float; (* S-EVM instructions skipped on the critical path *)
}

let ap_shape (run : Node.result) =
  (* canonical only, like [join]: a transaction executed again on a fork
     branch would otherwise be double-counted and skew the §5.5 shares *)
  let heard =
    List.filter
      (fun (t : Node.tx_record) -> t.canonical && t.heard && t.ap_futures > 0)
      run.txs
  in
  let n = max 1 (List.length heard) in
  let frac f = pct (List.length (List.filter f heard)) n in
  let more_avg get =
    let l = List.filter (fun t -> get t > 3) heard in
    mean (List.map (fun t -> float_of_int (get t)) l)
  in
  let hits =
    List.filter
      (fun (t : Node.tx_record) -> t.canonical && t.instrs_executed + t.instrs_skipped > 0)
      run.txs
  in
  let skipped = List.fold_left (fun a (t : Node.tx_record) -> a + t.instrs_skipped) 0 hits in
  let executed = List.fold_left (fun a (t : Node.tx_record) -> a + t.instrs_executed) 0 hits in
  {
    paths_1 = frac (fun t -> t.ap_paths = 1);
    paths_2 = frac (fun t -> t.ap_paths = 2);
    paths_3 = frac (fun t -> t.ap_paths = 3);
    paths_more = frac (fun t -> t.ap_paths > 3);
    paths_more_avg = more_avg (fun (t : Node.tx_record) -> t.ap_paths);
    ctx_1 = frac (fun t -> t.ap_contexts = 1);
    ctx_2 = frac (fun t -> t.ap_contexts = 2);
    ctx_3 = frac (fun t -> t.ap_contexts = 3);
    ctx_more = frac (fun t -> t.ap_contexts > 3);
    ctx_more_avg = more_avg (fun (t : Node.tx_record) -> t.ap_contexts);
    avg_shortcuts = mean (List.map (fun (t : Node.tx_record) -> float_of_int t.ap_shortcuts) heard);
    skip_pct = pct skipped (skipped + executed);
  }

(* ---- §5.6 off-critical-path overhead ---- *)

type overhead = {
  spec_to_exec_ratio : float; (* speculation time per context / plain exec *)
  spec_total_ms : float;
  contexts_total : int;
  build_errors : int;
  heap_mb : float;
}

let overhead (run : Node.result) =
  let gc = Gc.quick_stat () in
  {
    spec_to_exec_ratio =
      (if run.spec_base_exec_ns = 0 then 0.0
       else float_of_int run.spec_total_ns /. float_of_int run.spec_base_exec_ns);
    spec_total_ms = float_of_int run.spec_total_ns /. 1e6;
    contexts_total = run.spec_contexts;
    build_errors = run.spec_build_errors;
    heap_mb = float_of_int gc.heap_words *. 8.0 /. 1e6;
  }

(* ---- Report: one printer per table and figure ----

   [forerunner compare] calls each of these on the replays it runs; every
   printer writes a heading, its rows, and flushes. *)

let line = String.make 72 '-'
let section ppf title = Format.fprintf ppf "\n%s\n%s\n%s\n" line title line

let pp_table1 ppf ~tag (record : Netsim.Record.t) ~baseline =
  section ppf "Table 1: datasets";
  Format.fprintf ppf "%-5s %8s %7s %10s %10s %14s\n" "tag" "blocks" "forks" "txs" "%heard"
    "%heard(wtd)";
  let row = dataset_summary ~tag record baseline in
  Format.fprintf ppf "%-5s %8d %7d %10d %9.2f%% %13.2f%%\n%!" row.tag row.blocks
    record.n_fork_blocks row.tx_count row.heard_pct row.heard_weighted_pct

let pp_fig11 ppf record =
  section ppf "Figure 11: reverse CDF of heard delay";
  let points = [ 0; 2; 4; 8; 12; 16; 20; 24; 28; 32; 36; 40; 44; 48 ] in
  let rcdf = heard_delay_rcdf record ~points in
  Format.fprintf ppf "%-12s %s\n" "delay > (s)" "% of heard txs";
  List.iter (fun (x, p) -> Format.fprintf ppf "%-12d %6.2f%%\n" x p) rcdf;
  Format.pp_print_flush ppf ()

let pp_table2 ppf ~baseline runs =
  section ppf "Table 2: effective speedup";
  Format.fprintf ppf "%-15s %10s %12s %12s %12s\n" "policy" "speedup" "e2e speedup"
    "%satisfied" "%(weighted)";
  Format.fprintf ppf "%-15s %9s %11s %12s %12s\n" "baseline" "1.00x" "1.00x" "n/a" "n/a";
  List.iter
    (fun run ->
      let s = summarize ~baseline run in
      Format.fprintf ppf "%-15s %9.2fx %11.2fx %11.2f%% %11.2f%%\n" s.name s.effective_speedup
        s.e2e_speedup s.satisfied_pct s.satisfied_weighted_pct)
    runs;
  Format.pp_print_flush ppf ()

let pp_table3 ppf ~baseline run =
  section ppf "Table 3: breakdown by prediction outcome (Forerunner)";
  Format.fprintf ppf "%-22s %8s %12s %10s\n" "outcome" "% txs" "%(weighted)" "speedup";
  List.iter
    (fun row ->
      Format.fprintf ppf "%-22s %7.2f%% %11.2f%% %9.2fx\n" row.label row.tx_pct row.weighted
        row.speedup_)
    (outcome_breakdown ~baseline run);
  Format.pp_print_flush ppf ()

let pp_fig12 ppf ~baseline run =
  section ppf "Figure 12: speedup distribution across heard transactions";
  let counts, total = speedup_histogram ~baseline run ~bucket_width:5 ~max_bucket:50 in
  let label i =
    if i = 0 then "<1x"
    else if i = Array.length counts - 1 then ">=50x"
    else Printf.sprintf "%d-%dx" ((i - 1) * 5) (i * 5)
  in
  Array.iteri
    (fun i c ->
      let p = 100.0 *. float_of_int c /. float_of_int (max 1 total) in
      Format.fprintf ppf "%-8s %6.2f%% %s\n" (label i) p
        (String.make (int_of_float (p /. 2.0)) '#'))
    counts;
  Format.pp_print_flush ppf ()

let pp_fig13 ppf ~baseline run =
  section ppf "Figure 13: gas used vs average speedup (accelerated txs)";
  Format.fprintf ppf "%-18s %10s %8s\n" "gas used" "speedup" "txs";
  List.iter
    (fun (b, s, c) -> Format.fprintf ppf "%-18s %9.2fx %8d\n" (gas_bucket_label b) s c)
    (gas_speedup_buckets ~baseline run);
  Format.pp_print_flush ppf ()

let pp_fig15 ppf run =
  section ppf "Figure 15: code reduction during AP synthesis (averages)";
  let s = synthesis_report run in
  let pr fmt = Format.fprintf ppf fmt in
  pr "paths synthesized: %d; avg EVM trace length: %.1f instrs\n\n" s.n_paths s.avg_trace_len;
  pr "EVM trace                                100.00%%\n";
  pr "  + complex instruction decomposition   +%6.2f%%\n" s.pct_decomposed;
  pr "  - stack instructions eliminated       -%6.2f%%\n" s.pct_stack;
  pr "  - memory instructions promoted        -%6.2f%%\n" s.pct_mem;
  pr "  - control flow eliminated             -%6.2f%%\n" s.pct_control;
  pr "  - state/env reads promoted            -%6.2f%%\n" s.pct_state;
  pr "= S-EVM code (unoptimized)              %7.2f%%\n" s.pct_sevm;
  pr "  + constraint guards                   +%6.2f%%\n" s.pct_guards;
  pr "  - constants folded                    -%6.2f%%\n" s.pct_folded;
  pr "  - duplicates (CSE)                    -%6.2f%%\n" s.pct_cse;
  pr "  - dead code                           -%6.2f%%\n" s.pct_dead;
  pr "= AP path                               %7.2f%%\n" s.pct_ap;
  pr "    constraint set                      %7.2f%%\n" s.pct_constraint;
  pr "    fast path                           %7.2f%%\n" s.pct_fastpath;
  pr "\naverage AP path length: %.1f S-EVM instructions\n%!" s.avg_ap_len

let pp_sec55 ppf run =
  section ppf "Sec 5.5: AP structure and shortcut effectiveness";
  let s = ap_shape run in
  Format.fprintf ppf
    "AP paths per tx:    1: %.1f%%  2: %.1f%%  3: %.1f%%  >3: %.1f%% (avg %.1f)\n" s.paths_1
    s.paths_2 s.paths_3 s.paths_more s.paths_more_avg;
  Format.fprintf ppf
    "contexts per tx:    1: %.1f%%  2: %.1f%%  3: %.1f%%  >3: %.1f%% (avg %.1f)\n" s.ctx_1
    s.ctx_2 s.ctx_3 s.ctx_more s.ctx_more_avg;
  Format.fprintf ppf "avg shortcuts per AP: %.1f\n" s.avg_shortcuts;
  Format.fprintf ppf "S-EVM instructions skipped on the critical path: %.2f%%\n%!" s.skip_pct

let pp_sec56 ppf (run : Node.result) =
  section ppf "Sec 5.6: overhead off the critical path";
  Format.fprintf ppf "temporary-fork blocks processed: %d; observer-side reorgs: %d\n"
    run.fork_blocks run.reorgs;
  let o = overhead run in
  Format.fprintf ppf "pre-execution + AP synthesis vs plain execution: %.2fx\n"
    o.spec_to_exec_ratio;
  Format.fprintf ppf "total speculation time: %.1f ms over %d contexts (%d build fallbacks)\n"
    o.spec_total_ms o.contexts_total o.build_errors;
  Format.fprintf ppf "process heap: %.1f MB\n%!" o.heap_mb

let pp_ablation ppf ~baseline rows =
  section ppf "Ablations: Forerunner with individual techniques disabled";
  Format.fprintf ppf "%-28s %10s %12s %12s\n" "variant" "speedup" "e2e speedup" "%satisfied";
  List.iter
    (fun (name, run) ->
      let s = summarize ~baseline run in
      Format.fprintf ppf "%-28s %9.2fx %11.2fx %11.2f%%\n" name s.effective_speedup
        s.e2e_speedup s.satisfied_pct)
    rows;
  Format.pp_print_flush ppf ()
