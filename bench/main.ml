(* The evaluation harness: regenerates every table and figure of the paper's
   evaluation section (§5) on simulated DiCE traffic, plus Bechamel
   micro-benchmarks of the per-experiment kernels.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table2 fig12
     FORERUNNER_SCALE=0.25 dune exec bench/main.exe   # quicker run

   Absolute numbers differ from the paper (their substrate was geth on live
   Ethereum; ours is a from-scratch OCaml node on simulated traffic) — the
   comparisons reproduce the paper's *shape*: who wins, by what order, and
   where the breakdowns fall. *)

open Core

let line = String.make 72 '-'
let section title = Printf.printf "\n%s\n%s\n%s\n%!" line title line

(* ---- cached dataset runs ---- *)

type ds_run = {
  def : Datasets.def;
  record : Netsim.Record.t;
  baseline : Node.result;
  forerunner : Node.result;
  perfect : Node.result option;
  perfect_multi : Node.result option;
}

let cache : (string, ds_run) Hashtbl.t = Hashtbl.create 8

let run_dataset ?(all_policies = false) (def : Datasets.def) =
  match Hashtbl.find_opt cache def.tag with
  | Some r when (not all_policies) || r.perfect <> None -> r
  | Some _ | None ->
    Printf.printf "[%s] simulating %.0fs of traffic (seed %d)...\n%!" def.tag
      def.params.duration def.params.seed;
    let record = Datasets.record def in
    Printf.printf "[%s] %d blocks / %d txs; replaying (baseline)...\n%!" def.tag
      record.n_blocks record.n_txs;
    let baseline = Node.replay ~policy:Node.Baseline record in
    Printf.printf "[%s] replaying (forerunner)...\n%!" def.tag;
    let forerunner = Node.replay ~policy:Node.Forerunner record in
    let perfect, perfect_multi =
      if all_policies then begin
        Printf.printf "[%s] replaying (perfect, perfect+multi)...\n%!" def.tag;
        ( Some (Node.replay ~policy:Node.Perfect_match record),
          Some (Node.replay ~policy:Node.Perfect_multi record) )
      end
      else (None, None)
    in
    let r = { def; record; baseline; forerunner; perfect; perfect_multi } in
    Hashtbl.replace cache def.tag r;
    r

let l1 () = run_dataset ~all_policies:true Datasets.l1

(* ---- Figure 2: block size (gas limit) vs throughput (gas used) ---- *)

let fig2 () =
  section "Figure 2: block size and throughput (simulated epochs)";
  Printf.printf "%-10s %14s %14s %14s\n" "epoch" "gas limit" "gas used/blk" "utilization";
  List.iteri
    (fun i (limit, rate) ->
      let params =
        {
          Netsim.Sim.default_params with
          seed = 9000 + i;
          duration = 120.0;
          block_gas_limit = limit;
          tx_rate = rate;
          n_users = 120;
        }
      in
      let record = Netsim.Sim.run ~params () in
      let baseline = Node.replay ~policy:Node.Baseline record in
      let used =
        List.fold_left (fun a (b : Node.block_record) -> a + b.gas_used) 0 baseline.blocks
      in
      let n = max 1 (List.length baseline.blocks) in
      let per_block = used / n in
      Printf.printf "%-10s %14d %14d %13.1f%%\n%!"
        (Printf.sprintf "year-%d" (2015 + i))
        limit per_block
        (100.0 *. float_of_int per_block /. float_of_int limit))
    [ (3_000_000, 7.0); (4_000_000, 10.0); (6_000_000, 15.0); (8_000_000, 19.0);
      (10_000_000, 24.0); (12_000_000, 28.0) ]

(* ---- Table 1 ---- *)

let table1 () =
  section "Table 1: datasets";
  Printf.printf "%-5s %-6s %8s %7s %10s %10s %14s\n" "tag" "mode" "blocks" "forks" "txs"
    "%heard" "%heard(wtd)";
  List.iter
    (fun def ->
      let r = run_dataset def in
      let row = Metrics.dataset_summary ~tag:def.Datasets.tag r.record r.baseline in
      Printf.printf "%-5s %-6s %8d %7d %10d %9.2f%% %13.2f%%\n%!" row.tag
        (if def.live then "live" else "replay")
        row.blocks r.record.n_fork_blocks row.tx_count row.heard_pct row.heard_weighted_pct)
    Datasets.all

(* ---- Figure 11 ---- *)

let fig11 () =
  section "Figure 11: reverse CDF of heard delay (L1)";
  let r = l1 () in
  let points = [ 0; 2; 4; 8; 12; 16; 20; 24; 28; 32; 36; 40; 44; 48 ] in
  let rcdf = Metrics.heard_delay_rcdf r.record ~points in
  Printf.printf "%-12s %s\n" "delay > (s)" "% of heard txs";
  List.iter (fun (x, p) -> Printf.printf "%-12d %6.2f%%\n" x p) rcdf

(* ---- Table 2 ---- *)

let table2 () =
  section "Table 2: effective speedup (L1)";
  let r = l1 () in
  Printf.printf "%-15s %10s %12s %12s %12s\n" "policy" "speedup" "e2e speedup" "%satisfied"
    "%(weighted)";
  let row (run : Node.result) =
    let s = Metrics.summarize ~baseline:r.baseline run in
    Printf.printf "%-15s %9.2fx %11.2fx %11.2f%% %11.2f%%\n" s.name s.effective_speedup
      s.e2e_speedup s.satisfied_pct s.satisfied_weighted_pct
  in
  Printf.printf "%-15s %9s %11s %12s %12s\n" "baseline" "1.00x" "1.00x" "n/a" "n/a";
  row r.forerunner;
  (match r.perfect with Some p -> row p | None -> ());
  (match r.perfect_multi with Some p -> row p | None -> ())

(* ---- Table 3 ---- *)

let table3 () =
  section "Table 3: breakdown by prediction outcome (L1, Forerunner)";
  let r = l1 () in
  let rows = Metrics.outcome_breakdown ~baseline:r.baseline r.forerunner in
  Printf.printf "%-22s %8s %12s %10s\n" "outcome" "% txs" "%(weighted)" "speedup";
  List.iter
    (fun (row : Metrics.outcome_row) ->
      Printf.printf "%-22s %7.2f%% %11.2f%% %9.2fx\n" row.label row.tx_pct row.weighted
        row.speedup_)
    rows

(* ---- Figure 12 ---- *)

let fig12 () =
  section "Figure 12: speedup distribution across heard transactions (L1)";
  let r = l1 () in
  let counts, total =
    Metrics.speedup_histogram ~baseline:r.baseline r.forerunner ~bucket_width:5
      ~max_bucket:50
  in
  let label i =
    if i = 0 then "<1x"
    else if i = Array.length counts - 1 then ">=50x"
    else Printf.sprintf "%d-%dx" ((i - 1) * 5) (i * 5)
  in
  Array.iteri
    (fun i c ->
      let p = 100.0 *. float_of_int c /. float_of_int (max 1 total) in
      Printf.printf "%-8s %6.2f%% %s\n" (label i) p
        (String.make (int_of_float (p /. 2.0)) '#'))
    counts

(* ---- Figure 13 ---- *)

let fig13 () =
  section "Figure 13: gas used vs average speedup (L1, accelerated txs)";
  let r = l1 () in
  let buckets = Metrics.gas_speedup_buckets ~baseline:r.baseline r.forerunner in
  Printf.printf "%-18s %10s %8s\n" "gas used" "speedup" "txs";
  List.iter
    (fun (b, s, c) -> Printf.printf "%-18s %9.2fx %8d\n" (Metrics.gas_bucket_label b) s c)
    buckets

(* ---- Figure 14 ---- *)

let fig14 () =
  section "Figure 14: all datasets (Forerunner vs baseline)";
  Printf.printf "%-5s %12s %12s %12s %12s\n" "tag" "%satisfied" "%(weighted)" "effective"
    "end-to-end";
  List.iter
    (fun def ->
      let r = run_dataset def in
      let s = Metrics.summarize ~baseline:r.baseline r.forerunner in
      Printf.printf "%-5s %11.2f%% %11.2f%% %11.2fx %11.2fx\n%!" def.Datasets.tag
        s.satisfied_pct s.satisfied_weighted_pct s.effective_speedup s.e2e_speedup)
    Datasets.all

(* ---- Figure 15 ---- *)

let fig15 () =
  section "Figure 15: code reduction during AP synthesis (L1 averages)";
  let r = l1 () in
  let s = Metrics.synthesis_report r.forerunner in
  Printf.printf "paths synthesized: %d; avg EVM trace length: %.1f instrs\n\n" s.n_paths
    s.avg_trace_len;
  Printf.printf "EVM trace                                100.00%%\n";
  Printf.printf "  + complex instruction decomposition   +%6.2f%%\n" s.pct_decomposed;
  Printf.printf "  - stack instructions eliminated       -%6.2f%%\n" s.pct_stack;
  Printf.printf "  - memory instructions promoted        -%6.2f%%\n" s.pct_mem;
  Printf.printf "  - control flow eliminated             -%6.2f%%\n" s.pct_control;
  Printf.printf "  - state/env reads promoted            -%6.2f%%\n" s.pct_state;
  Printf.printf "= S-EVM code (unoptimized)              %7.2f%%\n" s.pct_sevm;
  Printf.printf "  + constraint guards                   +%6.2f%%\n" s.pct_guards;
  Printf.printf "  - constants folded                    -%6.2f%%\n" s.pct_folded;
  Printf.printf "  - duplicates (CSE)                    -%6.2f%%\n" s.pct_cse;
  Printf.printf "  - dead code                           -%6.2f%%\n" s.pct_dead;
  Printf.printf "= AP path                               %7.2f%%\n" s.pct_ap;
  Printf.printf "    constraint set                      %7.2f%%\n" s.pct_constraint;
  Printf.printf "    fast path                           %7.2f%%\n" s.pct_fastpath;
  Printf.printf "\naverage AP path length: %.1f S-EVM instructions\n" s.avg_ap_len

(* ---- §5.5 ---- *)

let sec55 () =
  section "Sec 5.5: AP structure and shortcut effectiveness (L1)";
  let r = l1 () in
  let s = Metrics.ap_shape r.forerunner in
  Printf.printf "AP paths per tx:    1: %.1f%%  2: %.1f%%  3: %.1f%%  >3: %.1f%% (avg %.1f)\n"
    s.paths_1 s.paths_2 s.paths_3 s.paths_more s.paths_more_avg;
  Printf.printf "contexts per tx:    1: %.1f%%  2: %.1f%%  3: %.1f%%  >3: %.1f%% (avg %.1f)\n"
    s.ctx_1 s.ctx_2 s.ctx_3 s.ctx_more s.ctx_more_avg;
  Printf.printf "avg shortcuts per AP: %.1f\n" s.avg_shortcuts;
  Printf.printf "S-EVM instructions skipped on the critical path: %.2f%%\n" s.skip_pct

(* ---- §5.6 ---- *)

let sec56 () =
  section "Sec 5.6: overhead off the critical path (L1)";
  let r = l1 () in
  Printf.printf "temporary-fork blocks processed: %d; observer-side reorgs: %d\n"
    r.forerunner.fork_blocks r.forerunner.reorgs;
  let o = Metrics.overhead r.forerunner in
  Printf.printf "pre-execution + AP synthesis vs plain execution: %.2fx\n" o.spec_to_exec_ratio;
  Printf.printf "total speculation time: %.1f ms over %d contexts (%d build fallbacks)\n"
    o.spec_total_ms o.contexts_total o.build_errors;
  Printf.printf "process heap: %.1f MB\n" o.heap_mb

(* ---- Ablations: which design choice buys what (DESIGN.md) ---- *)

let ablation () =
  section "Ablations: Forerunner with individual techniques disabled (L1)";
  let r = l1 () in
  Printf.printf "%-28s %10s %12s %12s\n" "variant" "speedup" "e2e speedup" "%satisfied";
  let row name (run : Node.result) =
    let s = Metrics.summarize ~baseline:r.baseline run in
    Printf.printf "%-28s %9.2fx %11.2fx %11.2f%%\n%!" name s.effective_speedup s.e2e_speedup
      s.satisfied_pct
  in
  row "forerunner (full)" r.forerunner;
  row "  - memoization"
    (Node.replay ~config:{ Node.default_config with use_memos = false }
       ~policy:Node.Forerunner r.record);
  row "  - prefetching"
    (Node.replay ~config:{ Node.default_config with prefetch = false }
       ~policy:Node.Forerunner r.record);
  row "  - multi-future (1 ctx)"
    (Node.replay ~config:Node.single_future_config ~policy:Node.Forerunner r.record);
  row "  - constraints (perfect)"
    (match r.perfect_multi with
    | Some p -> p
    | None -> Node.replay ~policy:Node.Perfect_multi r.record)

(* ---- Bechamel micro-benchmarks: one kernel per table/figure ---- *)

let micro () =
  section "Bechamel micro-benchmarks (kernel per experiment)";
  let open Bechamel in
  let open State in
  (* fixture: the paper's PriceFeed scenario *)
  let bk = Statedb.Backend.create () in
  let st0 = Statedb.create bk ~root:Statedb.empty_root in
  let alice = Address.of_int 0xA11CE in
  let feed = Address.of_int 0xFEED in
  Statedb.set_balance st0 alice (U256.of_string "1000000000000000000000");
  Contracts.Deploy.install_code st0 feed Contracts.Pricefeed.code;
  Statedb.set_storage st0 feed U256.zero (U256.of_int 3990000);
  let root = Statedb.commit st0 in
  let benv : Evm.Env.block_env =
    {
      coinbase = Address.of_int 0xC0FFEE;
      timestamp = 3990462L;
      number = 1000L;
      difficulty = U256.one;
      gas_limit = 12_000_000;
      chain_id = 1;
      block_hash = (fun n -> U256.of_int64 n);
    }
  in
  let tx : Evm.Env.tx =
    {
      sender = alice;
      to_ = Some feed;
      nonce = 0;
      value = U256.zero;
      data = Contracts.Pricefeed.submit_call ~round_id:3990300 ~price:1980;
      gas_limit = 1_000_000;
      gas_price = U256.of_int 100;
    }
  in
  (* speculate once to get trace + AP *)
  let st = Statedb.create bk ~root in
  Statedb.set_tracking st true;
  let snap = Statedb.snapshot st in
  let sink, get = Evm.Trace.collector () in
  let receipt = Evm.Processor.execute_tx ~trace:sink st benv tx in
  Statedb.revert st snap;
  let trace = get () in
  let path =
    match Sevm.Builder.build tx benv trace receipt st with
    | Ok p -> p
    | Error e -> failwith e
  in
  let ap = Ap.Program.create () in
  Ap.Program.add_path ap path;
  let exec_st = Statedb.create bk ~root in
  Statedb.warm exec_st (Statedb.touches st);
  (* a second fixture for the commit kernel: one account holding 4096
     committed storage slots *)
  let big = Address.of_int 0xB16 in
  let big_root =
    let st = Statedb.create bk ~root in
    for s = 0 to 4095 do
      Statedb.set_storage st big (U256.of_int s) (U256.of_int (s + 1))
    done;
    Statedb.commit st
  in
  let with_rollback f () =
    let s = Statedb.snapshot exec_st in
    let r = f () in
    Statedb.revert exec_st s;
    r
  in
  let tests =
    [ Test.make ~name:"table2.baseline-evm-exec"
        (Staged.stage (with_rollback (fun () -> Evm.Processor.execute_tx exec_st benv tx)));
      Test.make ~name:"table2.forerunner-ap-exec"
        (Staged.stage (with_rollback (fun () -> Ap.Exec.execute ap exec_st benv tx)));
      Test.make ~name:"table2.perfect-match-commit"
        (Staged.stage (with_rollback (fun () -> Core.Perfect.try_path path exec_st benv tx)));
      Test.make ~name:"table3.violation-plus-fallback"
        (Staged.stage
           (with_rollback (fun () ->
                let benv' = { benv with timestamp = 3990700L } in
                match Ap.Exec.execute ap exec_st benv' tx with
                | Ap.Exec.Hit _ -> assert false
                | Ap.Exec.Violation -> Evm.Processor.execute_tx exec_st benv' tx)));
      Test.make ~name:"fig15.ap-synthesis"
        (Staged.stage (fun () -> Sevm.Builder.build tx benv trace receipt st));
      Test.make ~name:"table1.keccak-256-block"
        (Staged.stage (fun () -> Khash.Keccak.digest (String.make 136 'x')));
      Test.make ~name:"table1.keccak-256-word"
        (Staged.stage (fun () -> Khash.Keccak.digest (String.make 32 'x')));
      Test.make ~name:"fig11.cold-state-read"
        (Staged.stage (fun () ->
             let st = Statedb.create bk ~root in
             Statedb.get_storage st feed U256.zero));
      Test.make ~name:"table1.trie-commit-200"
        (Staged.stage (fun () ->
             let st = Statedb.create bk ~root:big_root in
             for i = 0 to 199 do
               Statedb.set_storage st big (U256.of_int (i * 20)) (U256.of_int (i + 7))
             done;
             Statedb.commit st));
      Test.make ~name:"fig14.u256-mulmod"
        (Staged.stage
           (let a = U256.of_string "0xdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef" in
            fun () -> U256.mulmod a a (U256.of_int 997)))
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"forerunner" ~fmt:"%s/%s" tests)
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-45s %12.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "%-45s (no estimate)\n" name)
    (List.sort compare rows)

(* ---- driver ---- *)

let experiments =
  [ ("fig2", fig2); ("table1", table1); ("fig11", fig11); ("table2", table2);
    ("table3", table3); ("fig12", fig12); ("fig13", fig13); ("fig14", fig14);
    ("fig15", fig15); ("sec55", sec55); ("sec56", sec56); ("ablation", ablation);
    ("micro", micro) ]

(* [--metrics] / [--metrics-json FILE] enable the Obs registry around the
   experiments; [--fork NAME] sets the process-default hardfork spec every
   unparameterized execution resolves ([Spec.current]), so whole experiment
   suites can be rerun under another fork; remaining arguments name
   experiments as before. *)
let rec parse_args names metrics json = function
  | [] -> (List.rev names, metrics, json)
  | "--metrics" :: rest -> parse_args names true json rest
  | "--metrics-json" :: file :: rest -> parse_args names metrics (Some file) rest
  | "--metrics-json" :: [] ->
    Printf.eprintf "--metrics-json requires a FILE argument\n";
    exit 1
  | "--fork" :: name :: rest -> (
    match Spec.fork_of_string name with
    | Some f ->
      Spec.current := Spec.resolve f;
      parse_args names metrics json rest
    | None ->
      Printf.eprintf "unknown fork %S; available: %s\n" name
        (String.concat ", " (List.map Spec.fork_name Spec.all_forks));
      exit 1)
  | "--fork" :: [] ->
    Printf.eprintf "--fork requires a NAME argument\n";
    exit 1
  | a :: rest -> parse_args (a :: names) metrics json rest

let () =
  let names, metrics, metrics_json =
    parse_args [] false None (List.tl (Array.to_list Sys.argv))
  in
  Printf.printf "hardfork spec: %s\n%!" !Spec.current.Spec.name;
  let requested = if names = [] then List.map fst experiments else names in
  if metrics || metrics_json <> None then begin
    Obs.reset ();
    Obs.set_enabled true
  end;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    requested;
  if metrics || metrics_json <> None then begin
    Obs.set_enabled false;
    if metrics then begin
      section "Obs instrument registry";
      print_string (Obs.to_table ())
    end;
    match metrics_json with
    | Some file ->
      let oc = open_out file in
      output_string oc (Obs.to_json ());
      output_char oc '\n';
      close_out oc;
      Printf.printf "metrics written to %s\n%!" file
    | None -> ()
  end;
  Printf.printf "\nall requested experiments completed.\n"
