(* The @sched alias: the Fuzz.Runner Sched lane over the fuzz corpus (all
   forks) plus a bounded generated sweep.  jobs=4 must produce
   byte-identical APs (structural fingerprints) and identical
   constraint-satisfaction outcomes as jobs=1 on every scenario — exit
   non-zero on any mismatch.

   Also pins two scheduler policies at CI scale, so the old behaviours
   cannot silently return: the dedupe memo must skip duplicate-key
   submissions instead of chaining redundant jobs (the jobs=4 merged=6881
   waste), and [forget] must bound the memo to the live pending set.

   Last, the whole node: one recorded traffic run replayed under the
   Forerunner policy at jobs=1 and jobs=4 must agree on every transaction
   and every block. *)

let sweep_iters = 8
let seed = 42

(* Duplicate (hash, dedupe_key) storm: 1 real job + n duplicates per hash.
   The broken policy chained every duplicate — completed would read
   hashes*(n+1). *)
let dedupe_regression ~jobs =
  let s : int Sched.t = Sched.create ~jobs () in
  let hashes = 32 and dups = 8 in
  for h = 0 to hashes - 1 do
    let hash = Printf.sprintf "tx%d" h in
    for _ = 0 to dups do
      Sched.submit s ~dedupe_key:"ctx" ~hash (fun () -> h)
    done
  done;
  Sched.barrier s;
  let st = Sched.stats s in
  let results = List.length (Sched.drain s) in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt in
  if results <> hashes then
    fail "sched-ci: DEDUPE REGRESSION (jobs=%d): %d results for %d hashes" jobs results
      hashes;
  if st.Sched.completed <> hashes then
    fail "sched-ci: DEDUPE REGRESSION (jobs=%d): %d executions for %d hashes (waste!)"
      jobs st.Sched.completed hashes;
  if st.Sched.deduped <> hashes * dups then
    fail "sched-ci: DEDUPE REGRESSION (jobs=%d): %d deduped, expected %d" jobs
      st.Sched.deduped (hashes * dups)

(* Bookkeeping bound: submitting under a hash populates the dedupe memo;
   [forget] must shrink it to exactly the survivors. *)
let forget_bound_regression ~jobs =
  let s : int Sched.t = Sched.create ~jobs () in
  let n = 24 in
  let hashes = List.init n (Printf.sprintf "tx%d") in
  List.iter
    (fun hash ->
      Sched.submit s ~dedupe_key:"ctx" ~hash (fun () -> 0))
    hashes;
  Sched.barrier s;
  ignore (Sched.drain s : int Sched.result list);
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt in
  if Sched.memo_size s <> n then
    fail "sched-ci: FORGET-BOUND REGRESSION (jobs=%d): memo_size=%d, expected %d" jobs
      (Sched.memo_size s) n;
  (* retire half the block: the memo shrinks to the survivors, exactly *)
  let retired, live = (List.filteri (fun i _ -> i < n / 2) hashes, n - (n / 2)) in
  Sched.forget s retired;
  if Sched.memo_size s <> live then
    fail "sched-ci: FORGET-BOUND REGRESSION (jobs=%d): memo_size=%d after forget, expected %d"
      jobs (Sched.memo_size s) live;
  Sched.forget s hashes;
  if Sched.memo_size s <> 0 then
    fail "sched-ci: FORGET-BOUND REGRESSION (jobs=%d): memo not empty after full forget" jobs

(* Node replay identity: 30 s of recorded traffic (a tick each simulated
   second, so speculation results are collected between deliveries like in
   the live pipeline) replayed with [Node.default_config] at jobs=1 and
   jobs=4.  The per-tx (hash, outcome, gas_used, block_number) and
   per-block (number, root_ok, gas_used) sequences must be equal, both
   runs must complete the same number of speculation jobs, and the record
   must be big enough to say something: at least two blocks and some
   completed speculation. *)
let node_replay_identity () =
  let params =
    {
      Netsim.Sim.default_params with
      seed = 4242;
      duration = 30.0;
      tx_rate = 14.0;
      n_users = 120;
      tick_interval = Some 1.0;
    }
  in
  let record = Netsim.Sim.run ~params () in
  let replay jobs =
    Core.Node.replay
      ~config:{ Core.Node.default_config with jobs }
      ~policy:Core.Node.Forerunner record
  in
  (* counters only count while Obs is on: every path speculation builds
     must merge into its AP's one tree *)
  let dropped = Obs.counter "ap.paths_dropped" in
  let was = !Obs.enabled in
  Obs.set_enabled true;
  let dropped_before = Obs.count dropped in
  let r1, r4 =
    Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () -> (replay 1, replay 4))
  in
  let n_dropped = Obs.count dropped - dropped_before in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt in
  let tx_key (t : Core.Node.tx_record) = (t.hash, t.outcome, t.gas_used, t.block_number) in
  let block_key (b : Core.Node.block_record) = (b.number, b.root_ok, b.gas_used) in
  if List.map tx_key r1.txs <> List.map tx_key r4.txs then
    fail "sched-ci: NODE REPLAY: per-tx outcomes differ between jobs=1 and jobs=4";
  if List.map block_key r1.blocks <> List.map block_key r4.blocks then
    fail "sched-ci: NODE REPLAY: per-block results differ between jobs=1 and jobs=4";
  let n_blocks = List.length r1.blocks in
  if n_blocks < 2 then fail "sched-ci: NODE REPLAY: only %d block(s) replayed" n_blocks;
  if r1.sched.Sched.completed <> r4.sched.Sched.completed then
    fail "sched-ci: NODE REPLAY: %d speculation jobs at jobs=1, %d at jobs=4"
      r1.sched.Sched.completed r4.sched.Sched.completed;
  if r1.sched.Sched.completed = 0 then fail "sched-ci: NODE REPLAY: no speculation completed";
  Printf.printf
    "sched-ci: node replay: %d blocks, %d txs, %d speculation jobs; jobs=1 and jobs=4 \
     agree on every tx and block\n%!"
    n_blocks (List.length r1.txs) r1.sched.Sched.completed;
  Printf.printf "sched-ci: node replay: %d ap.paths_dropped (jobs=1 and jobs=4)\n%!" n_dropped;
  if n_dropped <> 0 then
    fail "sched-ci: NODE REPLAY: %d speculated path(s) failed to merge into their AP" n_dropped

let () =
  dedupe_regression ~jobs:1;
  dedupe_regression ~jobs:4;
  forget_bound_regression ~jobs:1;
  forget_bound_regression ~jobs:4;
  print_string "sched-ci: dedupe and forget-bound policies hold (jobs=1 and jobs=4)\n";
  let r =
    Fuzz.Runner.sweep ~lanes:[ Fuzz.Runner.Sched ] ~corpus:"corpus" ~seed ~iters:sweep_iters ()
  in
  List.iter
    (fun (f, e) -> Printf.printf "sched-ci: CORPUS ERROR %s: %s\n%!" f e)
    r.corpus_errors;
  List.iter (fun f -> Fmt.pr "sched-ci: MISMATCH %a@." Fuzz.Runner.pp_finding f) r.findings;
  Printf.printf
    "sched-ci: %d scenarios (%d corpus files, all forks, + %d generated, seed %d): %d txs, \
     %d AP fingerprints compared\n%!"
    r.tally.scenarios r.corpus_files sweep_iters seed r.tally.txs r.tally.fingerprints;
  if r.findings <> [] || r.corpus_errors <> [] then exit 1;
  print_string "sched-ci: jobs=4 and jobs=1 speculation agree everywhere\n";
  node_replay_identity ()
