(* Per-layer attribution for the traced run.

   Three sources, all outside the library:
   - [counters]: Obs counters and trie-store counters read after
     the workload's own timed phase ran with Obs enabled;
   - [node]: a Forerunner and a Baseline [Node.replay] of a recording,
     split by prediction outcome;
   - [pass]: the workload's blocks re-applied through each layer's public
     calls (pre-execution, S-EVM build, cold/warm interpreter execution,
     prefetch, AP execution, apstore keying, journal deltas, commit,
     sequential and parallel block apply), each call timed here. *)

open Common
module Statedb = State.Statedb

(* ---- node: critical path by outcome ---- *)

let replay tally ~policy record =
  match Core.Node.replay ~policy record with
  | r ->
    List.iter
      (fun (b : Core.Node.block_record) ->
        if b.canonical then
          check tally b.root_ok
            (Printf.sprintf "%s replay root at block %Ld" (Core.Node.policy_name policy) b.number))
      r.blocks;
    Some r
  | exception Invalid_argument msg ->
    check tally false msg;
    None

let canonical (r : Core.Node.result) = List.filter (fun (t : Core.Node.tx_record) -> t.canonical) r.txs

(* Per-transaction median of the baseline critical path over several
   Baseline replays, keyed by hash: one slow replay cannot move it. *)
let baseline_medians (rs : Core.Node.result list) =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      List.iter
        (fun (t : Core.Node.tx_record) ->
          let l = Option.value ~default:[] (Hashtbl.find_opt tbl t.hash) in
          Hashtbl.replace tbl t.hash (float_of_int t.exec_ns :: l))
        (canonical r))
    rs;
  let med = Hashtbl.create 1024 in
  Hashtbl.iter (fun h l -> Hashtbl.replace med h (median l)) tbl;
  med

let baseline_replays tally record n =
  List.filter_map (fun _ -> replay tally ~policy:Core.Node.Baseline record) (List.init n Fun.id)

let outcomes =
  Core.Node.[ ("perfect", O_perfect); ("imperfect", O_imperfect); ("missed", O_missed); ("unheard", O_unheard) ]

let is_hit (t : Core.Node.tx_record) =
  match t.outcome with
  | Core.Node.O_perfect | Core.Node.O_imperfect -> true
  | Core.Node.O_missed | Core.Node.O_unheard -> false

let crit_ns l = sum (List.map (fun (t : Core.Node.tx_record) -> t.exec_ns) l)

let base_ns base l =
  List.fold_left
    (fun a (t : Core.Node.tx_record) ->
      a +. Option.value ~default:0.0 (Hashtbl.find_opt base t.hash))
    0.0 l

(* Paper Table 2/3 from one Forerunner replay and the per-tx baseline
   medians, every figure a ratio of sums. *)
let print_tables (f : Core.Node.result) base =
  let txs = canonical f in
  let heard = List.filter (fun (t : Core.Node.tx_record) -> t.heard) txs in
  let hits = List.filter is_hit heard in
  let speedup l = fratio (base_ns base l) (float_of_int (crit_ns l)) in
  Printf.printf "Table 2: %% satisfied %.2f (%d of %d heard); effective speedup %.2fx; e2e speedup %.2fx\n"
    (pct (List.length hits) (List.length heard))
    (List.length hits) (List.length heard) (speedup heard) (speedup txs);
  Printf.printf "Table 3: %-10s %7s %8s %12s %12s %9s\n" "outcome" "txs" "% txs" "crit us/tx" "base us/tx"
    "speedup";
  List.iter
    (fun (name, o) ->
      let l = List.filter (fun (t : Core.Node.tx_record) -> t.outcome = o) txs in
      let n = List.length l in
      Printf.printf "         %-10s %7d %7.2f%% %12.2f %12.2f %8.2fx\n" name n
        (pct n (List.length txs))
        (ratio (crit_ns l) n /. 1e3)
        (fratio (base_ns base l) (float_of_int n) /. 1e3)
        (speedup l))
    outcomes

let node_metrics (f : Core.Node.result) base =
  let txs = canonical f in
  let heard = List.filter (fun (t : Core.Node.tx_record) -> t.heard) txs in
  let per_outcome =
    List.concat_map
      (fun (name, o) ->
        let l = List.filter (fun (t : Core.Node.tx_record) -> t.outcome = o) txs in
        [ m ("node.crit_us." ^ name) "us" (ratio (crit_ns l) (List.length l) /. 1e3);
          m ("node.txs." ^ name) "count" (float_of_int (List.length l)) ])
      outcomes
  in
  per_outcome
  @ [ m "node.speedup_e2e" "x" (fratio (base_ns base txs) (float_of_int (crit_ns txs)));
      m "predictor.contexts_per_tx" "count" (ratio f.spec_contexts (List.length heard));
      m "speculator.ctx_us" "us" (ratio f.spec_total_ns f.spec_contexts /. 1e3);
      m "speculator.base_exec_share" "%" (pct f.spec_base_exec_ns f.spec_total_ns);
      m "speculator.build_error_pct" "%" (pct f.spec_build_errors f.spec_contexts) ]

(* Forerunner once, Baseline three times, on [record]. *)
let node tally record =
  match replay tally ~policy:Core.Node.Forerunner record with
  | None -> []
  | Some f -> node_metrics f (baseline_medians (baseline_replays tally record 3))

(* ---- counters of a traced phase ---- *)

let reset_trie bks = List.iter (fun bk -> Trie.Db.reset_counters (Statedb.Backend.trie_db bk)) bks

(* Read right after a phase that ran under [traced]: [txs] is the work it
   completed, [bks] the backends it ran against (reset with [reset_trie]
   before the phase).  Replays only revisit stored nodes, so node writes
   come from set-up, where the chain was first built: [writes_per_block]. *)
let counters ~txs ~writes_per_block bks =
  let dbs = List.map Statedb.Backend.trie_db bks in
  let c = counter in
  let ap_runs = c "ap.hits" + c "ap.violations" in
  [ m "evm.decode_hit_pct" "%"
      (pct (c "interp.decode.hits") (c "interp.decode.hits" + c "interp.decode.misses"));
    m "ap.violation_pct" "%" (pct (c "ap.violations") ap_runs);
    m "ap.skip_pct" "%"
      (pct (c "ap.instrs_skipped") (c "ap.instrs_skipped" + c "ap.instrs_executed"));
    m "ap.guard_checks_per_tx" "count" (ratio (c "ap.guard_checks") ap_runs);
    m "apstore.hit_pct" "%" (pct (c "apstore.hits") (c "apstore.hits" + c "apstore.misses"));
    m "statedb.cache_hit_pct" "%"
      (pct (c "statedb.cache.hits") (c "statedb.cache.hits" + c "statedb.cache.misses"));
    m "trie.node_reads_per_tx" "count" (ratio (sum (List.map Trie.Db.node_reads dbs)) txs);
    m "trie.node_writes_per_block" "count" writes_per_block;
    m "trie.db_nodes" "count" (float_of_int (sum (List.map Trie.Db.size dbs))) ]

(* ---- keccak ---- *)

(* Median over 15 batches of the per-digest time, at one rate-block input
   (136 B) and one word (32 B, the trie-key and mapping-slot size). *)
let keccak_ns len =
  let msg = String.make len 'k' in
  let per_batch = 2000 in
  let batches =
    List.init 15 (fun _ ->
        let (), ns =
          time (fun () ->
              for _ = 1 to per_batch do
                ignore (Khash.Keccak.digest msg : string)
              done)
        in
        float_of_int ns /. float_of_int per_batch)
  in
  median batches

(* ---- the layer pass ---- *)

type acc = {
  mutable n : int;
  mutable build_ns : int;
  mutable builds : int;
  mutable cold_ns : int;
  mutable warm_ns : int;
  mutable warm_exec_ns : int;
  mutable delta_ns : int;
  mutable key_ns : int;
  mutable find_ns : int;
  mutable ap_ns : int;
  mutable ap_hits : int;
  mutable commit_ns : int;
  mutable seq_ns : int;
  mutable par_txs : int;
  mutable aborted : int;
  mutable serial : int;
  mutable par_commit_ns : int;
  mutable high_water : int;
}

let spec = !Spec.current

(* Obs stays on only around the parallel apply, whose spans the pass reads;
   the registry is not reset, so spans accumulate across blocks. *)
let traced_keep f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* Apstore keying (against an empty store, so [find] takes its miss
   path), then the AP fast path with interpreter fallback. *)
let store_step a tally ~store ~touches aps (b : block) =
  let st = Statedb.create b.bk ~root:b.parent in
  Statedb.warm st touches;
  List.iter
    (fun (tx : Evm.Env.tx) ->
      let key, ns = time (fun () -> Apstore.key_of_tx st spec tx) in
      a.key_ns <- a.key_ns + ns;
      let _, ns = time (fun () -> Option.bind key (Apstore.find store)) in
      a.find_ns <- a.find_ns + ns;
      match Hashtbl.find_opt aps (Evm.Env.tx_hash tx) with
      | None -> ignore (Evm.Processor.execute_tx st b.benv tx : Evm.Processor.receipt)
      | Some ap -> (
        let r, ns = time (fun () -> Ap.Exec.execute ap st b.benv tx) in
        match r with
        | Ap.Exec.Hit _ ->
          a.ap_ns <- a.ap_ns + ns;
          a.ap_hits <- a.ap_hits + 1
        | Ap.Exec.Violation -> ignore (Evm.Processor.execute_tx st b.benv tx : Evm.Processor.receipt)))
    b.txs;
  check tally (String.equal (Statedb.commit st) b.root) "layer pass: AP root"

(* Everything but the parallel apply, on the submitting domain alone;
   returns the block's APs.  [store] is the template store to key against,
   or [None] to skip keying and AP execution. *)
let block_pass a tally ~store (b : block) =
  let fresh () = Statedb.create b.bk ~root:b.parent in
  let ok what st = check tally (String.equal (Statedb.commit st) b.root) what in
  a.n <- a.n + List.length b.txs;
  (* pre-execution and S-EVM build, in block order on one state so every
     trace runs in its actual context; the read set feeds the prefetch *)
  let aps = Hashtbl.create 64 in
  let st = fresh () in
  Statedb.set_tracking st true;
  List.iter
    (fun (tx : Evm.Env.tx) ->
      let receipt, trace, _ = pre_execute st b.benv tx in
      (match (tx.to_, receipt.Evm.Processor.status) with
      | Some _, (Evm.Processor.Success | Evm.Processor.Reverted) -> (
        let r, ns = time (fun () -> Sevm.Builder.build tx b.benv trace receipt st) in
        a.build_ns <- a.build_ns + ns;
        a.builds <- a.builds + 1;
        match r with
        | Ok path -> Hashtbl.replace aps (Evm.Env.tx_hash tx) (ap_of_path path)
        | Error _ -> ())
      | None, _ | Some _, Evm.Processor.Invalid _ -> ());
      ignore (Evm.Processor.execute_tx st b.benv tx : Evm.Processor.receipt))
    b.txs;
  let touches = Statedb.touches st in
  (* cold interpreter execution and commit *)
  let st = fresh () in
  List.iter
    (fun tx ->
      let _, ns = time (fun () -> Evm.Processor.execute_tx st b.benv tx) in
      a.cold_ns <- a.cold_ns + ns)
    b.txs;
  let root, ns = time (fun () -> Statedb.commit st) in
  a.commit_ns <- a.commit_ns + ns;
  check tally (String.equal root b.root) "layer pass: cold root";
  (* prefetch, warm execution and journal-delta extraction *)
  let st = fresh () in
  let (), ns = time (fun () -> Statedb.warm st touches) in
  a.warm_ns <- a.warm_ns + ns;
  List.iter
    (fun tx ->
      let mark = Statedb.snapshot st in
      let _, ns = time (fun () -> Evm.Processor.execute_tx st b.benv tx) in
      a.warm_exec_ns <- a.warm_exec_ns + ns;
      let _, ns = time (fun () -> Statedb.changes_since st mark) in
      a.delta_ns <- a.delta_ns + ns)
    b.txs;
  ok "layer pass: warm root" st;
  Option.iter (fun store -> store_step a tally ~store ~touches aps b) store;
  (* block-level apply: sequential reference, then conflict-aware parallel *)
  let r, ns = time (fun () -> Chain.Stf.apply_txs (fresh ()) b.benv b.txs) in
  a.seq_ns <- a.seq_ns + ns;
  check tally (String.equal r.state_root b.root) "layer pass: sequential root";
  aps

let parallel_pass a tally ~pool (b : block) aps =
  let r, s =
    traced_keep (fun () ->
        Chain.Stf.apply_txs_parallel ~pool
          ~ap:(fun tx -> Hashtbl.find_opt aps (Evm.Env.tx_hash tx))
          ~static_partition:true
          (Statedb.create b.bk ~root:b.parent)
          b.benv b.txs)
  in
  check tally (String.equal r.state_root b.root) "layer pass: parallel root";
  a.par_txs <- a.par_txs + s.par_txs;
  a.aborted <- a.aborted + s.par_aborted + s.par_forced;
  a.serial <- a.serial + s.par_static_serial;
  a.par_commit_ns <- a.par_commit_ns + s.par_commit_ns;
  a.high_water <- max a.high_water (s.par_txs - s.par_static_serial)

(* Worker domains for the parallel applies: the host's core count. *)
let jobs = 2

(* [~store:false] leaves out apstore keying and AP execution, for a
   workload that times those calls itself.  Times are scaled by host
   probes taken after each block. *)
let pass ?(store = true) tally blocks =
  let a =
    {
      n = 0; build_ns = 0; builds = 0; cold_ns = 0; warm_ns = 0; warm_exec_ns = 0; delta_ns = 0;
      key_ns = 0; find_ns = 0; ap_ns = 0; ap_hits = 0; commit_ns = 0; seq_ns = 0; par_txs = 0;
      aborted = 0; serial = 0; par_commit_ns = 0; high_water = 0;
    }
  in
  Obs.reset ();
  let h = host () in
  let store = if store then Some (Apstore.create ()) else None in
  let aps =
    List.map
      (fun b ->
        let aps = block_pass a tally ~store b in
        probe h;
        aps)
      blocks
  in
  (* idle worker domains would slow every single-domain timing above, so
     the pool exists only for the parallel applies *)
  let pool = Chain.Stf.create_pool ~jobs () in
  Fun.protect
    ~finally:(fun () -> Chain.Stf.shutdown_pool pool)
    (fun () ->
      List.iter2
        (fun b aps ->
          parallel_pass a tally ~pool b aps;
          probe h)
        blocks aps);
  let keccak32 = keccak_ns 32 and keccak136 = keccak_ns 136 in
  probe h;
  let k = host_scale h in
  let nb = List.length blocks in
  let us ns n = ratio ns n /. 1e3 *. k and ms ns n = ratio ns n /. 1e6 *. k in
  let span_ms name = span_mean_ms name *. k in
  let exec_blocks, exec_ns = span "stf.parallel.exec" in
  let _, job_ns = span "sched.job" in
  let store_metrics =
    if Option.is_none store then []
    else
      [ m "ap.exec_us" "us" (us a.ap_ns a.ap_hits);
        m "apstore.key_us" "us" (us a.key_ns a.n);
        m "apstore.find_us" "us" (us a.find_ns a.n) ]
  in
  store_metrics
  @ [ m "sevm.build_us" "us" (us a.build_ns a.builds);
    m "evm.exec_cold_us" "us" (us a.cold_ns a.n);
    m "evm.exec_warm_us" "us" (us a.warm_exec_ns a.n);
    m "statedb.warm_us_per_tx" "us" (us a.warm_ns a.n);
    m "statedb.commit_ms" "ms" (ms a.commit_ns nb);
    m "statedb.journal_delta_us" "us" (us a.delta_ns a.n);
    m "khash.keccak32_ns" "ns" (keccak32 *. k);
    m "khash.keccak136_ns" "ns" (keccak136 *. k);
    m "sched.job_ms" "ms" (span_ms "sched.job");
    (* the speculative phase's wall beyond an even split of its job time
       across the pool: hand-off, imbalance and barrier idle *)
    m "sched.barrier_ms" "ms"
      (fratio (float_of_int exec_ns -. (float_of_int job_ns /. float_of_int jobs)) (float_of_int exec_blocks)
      /. 1e6 *. k);
    m "sched.queue_high_water" "count" (float_of_int a.high_water);
    m "stf.par_exec_ms" "ms" (span_ms "stf.parallel.exec");
    m "stf.par_commit_ms" "ms" (ms a.par_commit_ns nb);
    m "stf.partition_ms" "ms" (span_ms "stf.parallel.partition");
    m "stf.abort_pct" "%" (pct a.aborted a.par_txs);
    m "stf.static_serial_pct" "%" (pct a.serial a.par_txs);
    m "stf.seq_block_ms" "ms" (ms a.seq_ns nb) ]
