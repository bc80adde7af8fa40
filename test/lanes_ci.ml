(* The CI lane aliases: `lanes_ci.exe <alias>` runs one lane selection of
   Fuzz.Runner over the checked-in corpus and a fixed-seed generated
   sweep, and exits non-zero on any finding or on a seeded fault that
   slips through.

     fuzz      the oracle lanes (legacy, S-EVM, AP, verifier) over the
               corpus, then a bounded fuzz pass with shrinking
     parallel  the Apply lane: conflict-aware parallel block apply
               byte-identical to the sequential apply; then the same on
               recorded transfer / amm / mixed traffic against the
               miner's header roots, with forks served by the prefetched
               master on the partitioned transfer blocks and the
               commit loop's conflict check aborting both in the sweep
               and on the partitioned mixed blocks
     analysis  the Verifier lane, a qcheck property that the verifier
               accepts builder output, and the add / drop-guard faults
     bca       the Footprint lane (sentinels + corpus + 200 scenarios per
               fork), the four narrowing faults, and the 4-domain
               analysis-cache hammer *)

open Fuzz

let fail fmt = Printf.ksprintf (fun m -> print_endline m; exit 1) fmt

let print_findings name fs =
  List.iter (fun f -> Fmt.pr "%s:   %a@." name Runner.pp_finding f) fs

(* The sweep's verdict: a clean sweep prints its unreadable corpus entries
   and findings, a faulted one the lines naming who rejected the fault;
   anything but [Ok] fails the alias. *)
let judge name ~lanes ?fault (r : Runner.sweep_result) =
  if fault = None then begin
    List.iter
      (fun (f, e) -> Printf.printf "%s: CORPUS ERROR %s: %s\n%!" name f e)
      r.corpus_errors;
    print_findings name r.findings
  end;
  match Runner.verdict ~lanes fault r with
  | Ok lines -> List.iter (Printf.printf "%s: %s\n%!" name) lines
  | Error e -> fail "%s: %s" name e

let fuzz () =
  Obs.reset ();
  Obs.set_enabled true;
  let lanes = Runner.oracle in
  let r = Runner.sweep ~lanes ~corpus:"corpus" ~seed:0 ~iters:0 () in
  Printf.printf "fuzz-ci: corpus %d/%d entries clean\n%!"
    (r.corpus_files - List.length r.corpus_failed)
    r.corpus_files;
  judge "fuzz-ci" ~lanes r;
  let seed = 42 and iters = 500 in
  let s = Driver.fuzz ~lanes ~seed ~iters () in
  let t = s.tally in
  Printf.printf
    "fuzz-ci: %d iterations (seed %d): %d txs, %d fallbacks, %d perturbed violations, %d \
     perturbed hits, %d warm-built cold-replay violations, %d envelope-boundary serves\n%!"
    s.iters_run seed t.txs t.fallbacks t.perturbed_violations t.perturbed_hits
    t.warm_violations t.boundary_serves;
  if t.boundary_serves = 0 then fail "fuzz-ci: no template was served at its envelope boundary";
  Obs.set_enabled false;
  (* non-vacuity: the Legacy lane must have compared fused streams *)
  let triples = Obs.count (Obs.counter "interp.decode.fused_triples")
  and dups = Obs.count (Obs.counter "interp.decode.fused_dups") in
  Printf.printf "fuzz-ci: decoded streams carried %d fused triples, %d fused dups\n%!" triples
    dups;
  if triples = 0 || dups = 0 then fail "fuzz-ci: no fused triple or no fused dup was decoded";
  match s.counterexample with
  | None -> print_string "fuzz-ci: all engines agree\n"
  | Some f ->
    Printf.printf "fuzz-ci: DIVERGENCE at iteration %d, shrunk scenario:\n%s%!" f.iter
      (Scenario.to_string f.scenario);
    print_findings "fuzz-ci" f.findings;
    exit 1

(* Recorded traffic: every canonical block of a netsim record, applied
   sequentially and in parallel on a 2-domain pool, static partitioning
   off and then on.  Each transaction gets its AP built beforehand against
   the block's parent state (the speculation a live node ran while the tx
   sat in the pool), so the speculative phase runs the fast path and
   conflicts surface at commit.  The parallel root must equal the
   sequential root, which must equal the miner's header root, for every
   block. *)
let record_workload ~name ~seed ~n_users mix =
  let params =
    { Netsim.Sim.default_params with seed; duration = 60.0; tx_rate = 14.0; n_users; mix }
  in
  let record = Netsim.Sim.run ~params () in
  let bk = record.backend in
  let blocks =
    Array.to_list record.events
    |> List.filter_map (function
         | Netsim.Record.Block (_, b) when Netsim.Record.is_canonical record b -> Some b
         | Netsim.Record.Block _ | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> None)
    |> List.sort (fun (a : Chain.Block.t) b -> compare a.header.number b.header.number)
  in
  if blocks = [] then fail "parallel-ci: %s record has no canonical block" name;
  let pool = Chain.Stf.create_pool ~jobs:2 () in
  let parent_hits = Obs.counter "statedb.fork.parent_hits" in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Chain.Stf.shutdown_pool pool)
  @@ fun () ->
  List.iter
    (fun static_partition ->
      let hits0 = Obs.count parent_hits in
      let parent = ref record.genesis_root in
      let txs = ref 0 and aborted = ref 0 and serial = ref 0 in
      List.iter
        (fun (b : Chain.Block.t) ->
          let benv =
            Chain.Stf.block_env_of_header b.header ~block_hash:Netsim.Record.block_hash
          in
          let aps = Hashtbl.create 64 in
          let st = State.Statedb.create bk ~root:!parent in
          List.iter
            (fun (tx : Evm.Env.tx) ->
              if tx.to_ <> None then
                match Runner.build_path st benv tx with
                | Ok path ->
                  let ap = Ap.Program.create () in
                  Ap.Program.add_path ap path;
                  Hashtbl.replace aps (Evm.Env.tx_hash tx) ap
                | Error _ -> ())
            b.txs;
          let ap (tx : Evm.Env.tx) = Hashtbl.find_opt aps (Evm.Env.tx_hash tx) in
          let seq = Chain.Stf.apply_txs (State.Statedb.create bk ~root:!parent) benv b.txs in
          let par, stats =
            Chain.Stf.apply_txs_parallel ~pool ~ap ~static_partition
              (State.Statedb.create bk ~root:!parent)
              benv b.txs
          in
          if
            not
              (String.equal par.state_root seq.state_root
              && String.equal seq.state_root b.header.state_root)
          then
            fail "parallel-ci: ROOT MISMATCH %s block %Ld (static partitioning %b)" name
              b.header.number static_partition;
          txs := !txs + stats.par_txs;
          aborted := !aborted + stats.par_aborted + stats.par_forced;
          serial := !serial + stats.par_static_serial;
          parent := b.header.state_root)
        blocks;
      let hits = Obs.count parent_hits - hits0 in
      Printf.printf
        "parallel-ci: %-8s static %-3s %d blocks, %d txs, %d aborted, %d statically serial, \
         %d fork reads served by the master\n%!"
        name
        (if static_partition then "on" else "off")
        (List.length blocks) !txs !aborted !serial hits;
      (* the partition prefetches the master: forks must read from it *)
      if static_partition && name = "transfer" && hits = 0 then
        fail "parallel-ci: no fork read was served by the prefetched master";
      (* what the partition lets through must still meet the dynamic check *)
      if static_partition && name = "mixed" && !aborted = 0 then
        fail "parallel-ci: no partitioned mixed transaction was aborted at commit")
    [ false; true ]

let parallel () =
  let lanes = [ Runner.Apply ] in
  let r = Runner.sweep ~lanes ~corpus:"corpus" ~seed:1301 ~iters:8 () in
  judge "parallel-ci" ~lanes r;
  let t = r.tally in
  Printf.printf
    "parallel-ci: %d scenarios (%d corpus files, all forks, + 8 generated), %d txs applied \
     at jobs=1 and jobs=4, static partitioning off and on; %d aborts, %d forced reruns\n%!"
    t.scenarios r.corpus_files t.txs t.aborted t.forced;
  if t.aborted = 0 then fail "parallel-ci: the Apply sweep aborted no transaction at commit";
  (* disjoint transfers over 2000 users barely conflict; AMM swaps all
     serialize on one pair's reserves; the default mix sits between *)
  record_workload ~name:"transfer" ~seed:7001 ~n_users:2000
    [ (Workload.Gen.Eth_transfer, 1.0) ];
  record_workload ~name:"amm" ~seed:7002 ~n_users:120 [ (Workload.Gen.Amm_swap, 1.0) ];
  record_workload ~name:"mixed" ~seed:7003 ~n_users:120 Workload.Gen.default_mix;
  print_string "parallel-ci: parallel apply = sequential apply everywhere\n"

let analysis () =
  let seed = 42 and iters = 8 in
  let lanes = [ Runner.Verifier ] in
  let r = Runner.sweep ~lanes ~corpus:"corpus" ~seed ~iters () in
  Printf.printf
    "analysis-ci: verified %d programs from %d corpus files (all forks) + %d generated \
     scenarios, %d fallbacks\n%!"
    r.tally.programs r.corpus_files iters r.tally.fallbacks;
  judge "analysis-ci" ~lanes r;
  (* for any generator seed, builder output verifies *)
  let prop =
    QCheck.Test.make ~count:40 ~name:"verifier accepts builder output"
      QCheck.(int_bound 10_000)
      (fun s ->
        let s = Generate.seeded ~seed:s 0 in
        let fs = Runner.run ~lanes ~label:"prop" s in
        print_findings "analysis-ci" fs;
        fs = [])
  in
  (try QCheck.Test.check_exn prop
   with exn -> fail "analysis-ci: PROPERTY FAILED: %s" (Printexc.to_string exn));
  List.iter
    (fun fault ->
      let r = Runner.sweep ~lanes ~fault ~corpus:"corpus" ~seed ~iters () in
      if r.tally.mutated = 0 then
        fail "analysis-ci: fault %s was in effect on no program" (Runner.fault_name fault);
      judge "analysis-ci" ~lanes ~fault r)
    [ Runner.Add; Runner.Drop_guard ];
  print_string "analysis-ci: verifier clean on corpus + generated, both faults rejected\n"

(* Concurrent [Bca.facts_for] calls — one domain repeatedly clearing the
   cache to force racing re-analyses, a fifth analysing more distinct
   codes than the cache holds to force evictions — must always return
   facts identical to the single-threaded reference.  The clears can empty
   the cache under the churn, so the churn domain goes on past its first
   4,100 codes until it has seen an eviction (at most 50,000 codes). *)
let cache_hammer () =
  let codes =
    List.concat_map
      (fun i ->
        let s = Generate.seeded ~seed:7 i in
        List.map (Scenario.compile s) s.Scenario.contracts)
      [ 0; 1; 2; 3 ]
  in
  let spec = Spec.resolve Spec.Istanbul in
  Bca.clear_cache ();
  let codes = List.map (fun c -> (Khash.Keccak.digest c, c)) codes in
  let reference = List.map (fun (hash, c) -> Bca.facts_for ~spec ~hash c) codes in
  let mismatches = Atomic.make 0 in
  Obs.set_enabled true;
  let evictions = Obs.counter "bca.cache.evictions" in
  let e0 = Obs.count evictions in
  let churn () =
    let i = ref 0 in
    while (!i < 4100 || Obs.count evictions = e0) && !i < 50_000 do
      incr i;
      (* PUSH3 i; STOP *)
      let byte k = Char.chr ((!i lsr k) land 0xff) in
      let code = Printf.sprintf "\x62%c%c%c\x00" (byte 16) (byte 8) (byte 0) in
      ignore (Bca.facts_for ~spec ~hash:(Khash.Keccak.digest code) code)
    done
  in
  let readers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to 50 do
              if d = 0 then Bca.clear_cache ();
              List.iter2
                (fun (hash, c) r ->
                  if Bca.facts_for ~spec ~hash c <> r then Atomic.incr mismatches)
                codes reference
            done))
  in
  List.iter Domain.join (Domain.spawn churn :: readers);
  Obs.set_enabled false;
  if Atomic.get mismatches > 0 then
    fail "bca-ci: CACHE HAMMER: %d facts mismatches under 4-domain contention"
      (Atomic.get mismatches);
  let evicted = Obs.count evictions - e0 in
  if evicted = 0 then fail "bca-ci: CACHE HAMMER: the churn domain forced no eviction";
  Printf.printf
    "bca-ci: 4-domain analysis-cache hammer holds (%d codes x 200 lookups); %d \
     bca.cache.evictions\n%!"
    (List.length codes) evicted

let bca () =
  let seed = 42 and iters_per_fork = 200 in
  let lanes = [ Runner.Footprint ] in
  let r = Runner.sweep ~lanes ~corpus:"corpus" ~seed ~iters:iters_per_fork () in
  let t = r.tally in
  Printf.printf
    "bca-ci: %d scenarios (%d corpus files, %d/fork generated x %d forks), %d txs: %d \
     touches + %d changes covered, %d wild, %d witness flips\n%!"
    t.scenarios r.corpus_files iters_per_fork Spec.n_forks t.txs t.touches t.changes t.wild
    t.flips;
  judge "bca-ci" ~lanes r;
  if t.touches = 0 || t.changes = 0 || t.flips = 0 then
    fail "bca-ci: sweep checked nothing (touches=%d changes=%d flips=%d)" t.touches t.changes
      t.flips;
  (* a small sweep suffices: the sentinels trip each narrowed domain *)
  List.iter
    (fun n ->
      let fault = Runner.Narrow n in
      judge "bca-ci" ~lanes ~fault (Runner.sweep ~lanes ~fault ~corpus:"corpus" ~seed ~iters:2 ()))
    [ Bca.N_cfg; Bca.N_stack; Bca.N_footprint; Bca.N_calldata ];
  if !Bca.seeded_narrowing <> None then
    fail "bca-ci: narrowing leaked out of the rejection runs";
  cache_hammer ();
  print_string "bca-ci: all passes green\n"

let () =
  match Sys.argv with
  | [| _; "fuzz" |] -> fuzz ()
  | [| _; "parallel" |] -> parallel ()
  | [| _; "analysis" |] -> analysis ()
  | [| _; "bca" |] -> bca ()
  | _ -> fail "usage: lanes_ci.exe fuzz|parallel|analysis|bca"
