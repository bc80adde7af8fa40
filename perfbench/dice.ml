(* dice: DiCE default-mix traffic with the L1 dataset parameters, recorded
   from the seed and replayed under Forerunner (default config, jobs=1) and
   under Baseline.  The paper's headline: speculation does nearly all the
   work, the critical path is what the user sees.  Not gated in
   BENCHMARK.json: which and how many [Heavy_work] transactions a seed
   draws decides the critical path (see README.md). *)

open Common

let default_seed = 101 (* L1/R1 *)
let held_out_seed = 202 (* R2's seed, never used while tuning *)

type t = {
  record : Netsim.Record.t;
  record_ns : int;
  writes_per_block : float;  (** trie nodes stored per block while recording *)
}

(* At least 1000 canonical transactions, so the p99 has ten samples past
   it; the recording is lengthened until it has them. *)
let setup _tally ~seed ~scale =
  let min_txs = int_of_float (1000.0 *. scale) in
  let rec go duration =
    let params = { Netsim.Sim.default_params with seed; duration } in
    let r = Netsim.Sim.run ~params () in
    if r.n_txs >= min_txs then r else go (duration *. 1.25)
  in
  let record, record_ns = time (fun () -> go (110.0 *. scale)) in
  let writes = Trie.Db.node_writes (State.Statedb.Backend.trie_db record.backend) in
  { record; record_ns; writes_per_block = ratio writes (record.n_blocks + record.n_fork_blocks) }

let baseline_runs = 3

(* [k] scales a time to the reference host (see [Common.host_scale]). *)
let e2e_metrics (f : Core.Node.result) ~wall ~k base =
  let txs = Layers.canonical f in
  let n = List.length txs in
  let exec = List.map (fun (t : Core.Node.tx_record) -> t.exec_ns) txs in
  let heard = List.filter (fun (t : Core.Node.tx_record) -> t.heard) txs in
  let blocks = List.filter (fun (b : Core.Node.block_record) -> b.canonical) f.blocks in
  [ m "tx_per_s" "1/s" (float_of_int n /. secs wall /. k);
    m "crit_us_per_tx" "us" (ratio (sum exec) n /. 1e3 *. k);
    m "crit_p50_us" "us" (float_of_int (percentile exec 50.0) /. 1e3 *. k);
    m "crit_p99_us" "us" (float_of_int (percentile exec 99.0) /. 1e3 *. k);
    m "block_crit_ms" "ms"
      (ratio (sum (List.map (fun (b : Core.Node.block_record) -> b.exec_ns) blocks)) (List.length blocks)
      /. 1e6 *. k);
    m "baseline_us_per_tx" "us" (Layers.base_ns base txs /. float_of_int n /. 1e3 *. k);
    m "hit_pct" "%" (pct (List.length (List.filter Layers.is_hit heard)) (List.length heard));
    m "spec_ctx_per_s" "1/s" (ratio f.spec_contexts f.spec_total_ns *. 1e9 /. k);
    m "peak_heap_mb" "MB" (peak_heap_mb ()) ]

(* The timed phase is one Forerunner replay and three Baseline replays
   of the whole recording, whatever [seconds] says: the replay is the
   unit of work and cannot be cut short.  The host is probed before and
   after each. *)
let run tally t ~seconds:_ =
  let h = host () in
  probe ~n:5 h;
  let f, wall = time (fun () -> Layers.replay tally ~policy:Core.Node.Forerunner t.record) in
  probe ~n:5 h;
  let base =
    Layers.baseline_medians
      (List.init baseline_runs (fun _ ->
           let r = Layers.baseline_replays tally t.record 1 in
           probe ~n:5 h;
           r)
      |> List.concat)
  in
  match f with
  | None -> []
  | Some f ->
    Printf.printf "dice: %d canonical txs; speculation %.1f s of the %.1f s replay (%.1f%%)\n"
      t.record.n_txs (secs f.spec_total_ns) (secs wall) (pct f.spec_total_ns wall);
    Layers.print_tables f base;
    e2e_metrics f ~wall ~k:(host_scale h) base

let trace tally t ~seconds:_ =
  let bk = t.record.backend in
  let h = host () in
  probe ~n:5 h;
  let f, wall0 = time (fun () -> Layers.replay tally ~policy:Core.Node.Forerunner t.record) in
  probe ~n:5 h;
  let base = Layers.baseline_medians (Layers.baseline_replays tally t.record baseline_runs) in
  Layers.reset_trie [ bk ];
  let _, wall1 =
    time (fun () -> traced (fun () -> Layers.replay tally ~policy:Core.Node.Forerunner t.record))
  in
  let counters = Layers.counters ~txs:t.record.n_txs ~writes_per_block:t.writes_per_block [ bk ] in
  let node = match f with Some f -> Layers.node_metrics f base | None -> [] in
  node @ counters
  @ Layers.pass tally (canonical_blocks t.record)
  @ [ m "host.probe_us" "us" (probe_us h);
      m "netsim.record_s" "s" (secs t.record_ns);
      m "obs.overhead_pct" "%" (100.0 *. (ratio wall1 wall0 -. 1.0)) ]
