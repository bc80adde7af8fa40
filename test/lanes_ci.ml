(* The CI lane aliases: `lanes_ci.exe <alias>` runs one lane selection of
   Fuzz.Runner over the checked-in corpus and a fixed-seed generated
   sweep, and exits non-zero on any finding or on a seeded fault that
   slips through.

     fuzz      the synthesis pin (a digest of every S-EVM path built),
               the oracle lanes (legacy, S-EVM, AP, verifier) over the
               corpus, then a bounded fuzz pass with shrinking
     parallel  the Apply lane: conflict-aware parallel block apply
               byte-identical to the sequential apply; then the same on
               recorded transfer / amm / mixed traffic against the
               miner's header roots, with forks served by the prefetched
               master on the partitioned transfer blocks, the commit
               loop's conflict check aborting both in the sweep and on
               the partitioned mixed blocks, and the commit loop's
               sequential executions — contract creations among them —
               served by their APs there
     analysis  the Verifier lane, a qcheck property that the verifier
               accepts builder output, and the add / drop-guard faults
     bca       the Footprint lane (sentinels + corpus + 200 scenarios per
               fork), the four narrowing faults, and the 4-domain
               analysis-cache hammer
     dice      the count pins: the benchmark's dice recording replayed once
               under Forerunner, every outcome and AP counter pinned *)

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

(* ---- the synthesis pin ----

   A structural digest of every S-EVM path the builder synthesizes, per
   transaction and in template mode, over the corpus under every fork, a
   fixed generated sweep and a short default-mix recording.  Every field
   of [Ir.path] is encoded, so a rewrite of the builder's internals must
   reproduce its output exactly: the same instructions in the same order,
   the same registers, writes, output pieces, traced values and
   statistics.  A builder fallback encodes its reason.  The pinned digest
   is the one the per-byte-table builder produced. *)

module I = Sevm.Ir

let synthesis_digest = "64a8f81f10bdaf9efa4f41df047ff206"
let synthesis_seed = 31 and synthesis_iters = 500

let encode_path buf (p : I.path) =
  let int n = Buffer.add_string buf (string_of_int n); Buffer.add_char buf ',' in
  let str s = int (String.length s); Buffer.add_string buf s in
  let tag c = Buffer.add_char buf c in
  let word v = Buffer.add_string buf (U256.to_bytes_be v) in
  let addr a = Buffer.add_string buf (State.Address.to_bytes a) in
  let operand = function I.Reg r -> tag 'r'; int r | I.Const v -> tag 'c'; word v in
  let list f l = int (List.length l); List.iter f l in
  let pieces =
    list (function
      | I.P_const s -> tag 'k'; str s
      | I.P_reg (r, off, len) -> tag 'p'; int r; int off; int len)
  in
  let read = function
    | I.R_timestamp -> tag 'T' | I.R_number -> tag 'N' | I.R_coinbase -> tag 'C'
    | I.R_difficulty -> tag 'D' | I.R_gaslimit -> tag 'G'
    | I.R_blockhash o -> tag 'H'; operand o
    | I.R_balance o -> tag 'B'; operand o
    | I.R_nonce a -> tag 'n'; addr a
    | I.R_nonce_of o -> tag 'o'; operand o
    | I.R_storage (a, k) -> tag 's'; addr a; word k
    | I.R_storage_dyn (a, o) -> tag 'd'; addr a; operand o
    | I.R_extcodesize o -> tag 'z'; operand o
    | I.R_extcodehash o -> tag 'h'; operand o
  in
  int (Array.length p.instrs);
  Array.iter
    (function
      | I.Compute (r, op, args) ->
        tag 'C'; int r; Buffer.add_string buf (I.compute_name op);
        int (Array.length args); Array.iter operand args
      | I.Keccak (r, ps) -> tag 'K'; int r; pieces ps
      | I.Sha256 (r, ps) -> tag 'S'; int r; pieces ps
      | I.Pack (r, ps) -> tag 'P'; int r; pieces ps
      | I.Read (r, src) -> tag 'R'; int r; read src
      | I.Guard (o, v) -> tag 'g'; operand o; word v
      | I.Guard_size (o, n) -> tag 'z'; operand o; int n
      | I.Guard_warm ((a, k), w) ->
        tag 'w'; addr a; (match k with None -> tag '-' | Some k -> word k);
        tag (if w then '1' else '0'))
    p.instrs;
  int p.first_fast;
  list
    (function
      | I.W_storage (a, k, v) -> tag 'S'; addr a; word k; operand v
      | I.W_storage_dyn (a, k, v) -> tag 'D'; addr a; operand k; operand v
      | I.W_balance_set (a, v) -> tag '='; operand a; operand v
      | I.W_balance_add (a, v) -> tag '+'; operand a; operand v
      | I.W_balance_sub (a, v) -> tag '-'; operand a; operand v
      | I.W_nonce_set (a, n) -> tag 'N'; addr a; int n
      | I.W_nonce_dyn (a, n) -> tag 'n'; operand a; operand n
      | I.W_code (a, ps) -> tag 'C'; addr a; pieces ps
      | I.W_log (a, topics, ps) -> tag 'L'; addr a; list operand topics; pieces ps)
    p.writes;
  str (Fmt.str "%a" Evm.Processor.pp_status p.status);
  int p.gas_used;
  (match p.gas_used_src with None -> tag '-' | Some o -> operand o);
  int p.gas_refund;
  pieces p.output;
  int p.reg_count;
  int (Array.length p.reg_values);
  Array.iter word p.reg_values;
  int p.fork;
  int (Array.length p.inputs);
  Array.iter (fun i -> str (Fmt.str "%a" I.pp_input i)) p.inputs;
  let s = p.stats in
  List.iter int
    [ s.evm_trace_len; s.decomposed_added; s.stack_eliminated; s.mem_eliminated;
      s.control_eliminated; s.state_eliminated; s.const_folded; s.cse_removed;
      s.dead_removed; s.guards_added; s.constraint_len; s.fastpath_len ]

(* [tx] built at [root], per transaction and as a template, each result
   folded into the running digest [d]; [n] counts the paths built. *)
let digest_tx d n ?spec bk ~root benv tx =
  let fold r =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf !d;
    (match r with
    | Ok p -> incr n; encode_path buf p
    | Error e -> Buffer.add_string buf ("E:" ^ e));
    d := Digest.string (Buffer.contents buf)
  in
  let st = State.Statedb.create bk ~root in
  let receipt, events = Runner.trace ?spec st benv tx in
  fold (Sevm.Builder.build ?spec tx benv events receipt st);
  fold (Sevm.Builder.build ?spec ~template:true tx benv events receipt st)

let digest_scenario d n (s : Scenario.t) =
  let c = Runner.install ~tally:(Runner.new_tally ()) ~label:"synthesis" s in
  List.iter
    (fun (step : Runner.step) ->
      digest_tx d n ~spec:c.spec c.bk ~root:step.pre Runner.benv step.tx)
    c.steps

(* The default mix's contracts (tokens, AMM pairs, creations): every
   transaction of every canonical block of a short recording, built at
   its block's parent state. *)
let digest_record d n =
  let params =
    { Netsim.Sim.default_params with seed = 7003; duration = 30.0; tx_rate = 14.0;
      n_users = 120 }
  in
  let record = Netsim.Sim.run ~params () in
  let parent = ref record.genesis_root in
  Array.to_list record.events
  |> List.filter_map (function
       | Netsim.Record.Block (_, b) when Netsim.Record.is_canonical record b -> Some b
       | Netsim.Record.Block _ | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> None)
  |> List.sort (fun (a : Chain.Block.t) b -> compare a.header.number b.header.number)
  |> List.iter (fun (b : Chain.Block.t) ->
         let benv =
           Chain.Stf.block_env_of_header b.header ~block_hash:Netsim.Record.block_hash
         in
         List.iter (digest_tx d n record.backend ~root:!parent benv) b.txs;
         parent := b.header.state_root)

let synthesis () =
  let d = ref "" and n = ref 0 in
  List.iter
    (function
      | _, Ok s ->
        List.iter
          (fun f -> digest_scenario d n { s with Scenario.fork = Some f })
          Spec.all_forks
      | path, Error e -> fail "fuzz-ci: synthesis: unreadable corpus entry %s: %s" path e)
    (Runner.load_corpus "corpus");
  for i = 0 to synthesis_iters - 1 do
    digest_scenario d n (Generate.seeded ~seed:synthesis_seed i)
  done;
  digest_record d n;
  let hex = Digest.to_hex !d in
  Printf.printf "fuzz-ci: synthesis: %d paths, digest %s\n%!" !n hex;
  if hex <> synthesis_digest then
    fail "fuzz-ci: synthesis: the builder's output drifted (expected digest %s)"
      synthesis_digest

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
  let triples = Obs.count (Obs.counter "interp.decode.fused_triples") in
  Printf.printf "fuzz-ci: decoded streams carried %d fused triples\n%!" triples;
  if triples = 0 then fail "fuzz-ci: no fused triple was decoded";
  (* after the counted passes: its executions warm the decode cache *)
  synthesis ();
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
   block.  Returns the record and its canonical blocks. *)
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
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  List.iter
    (fun static_partition ->
      let hits0 = Obs.count parent_hits in
      let parent = ref record.genesis_root in
      let txs = ref 0 and aborted = ref 0 and serial = ref 0 and inline_hits = ref 0 in
      let creations = ref 0 and served_creations = ref 0 in
      List.iter
        (fun (b : Chain.Block.t) ->
          let benv =
            Chain.Stf.block_env_of_header b.header ~block_hash:Netsim.Record.block_hash
          in
          let ap = Runner.block_aps (State.Statedb.create bk ~root:!parent) benv b.txs in
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
          inline_hits := !inline_hits + stats.par_inline_ap_hits;
          List.iteri
            (fun i (tx : Evm.Env.tx) ->
              if tx.to_ = None then begin
                incr creations;
                if stats.par_ap_served.(i) then incr served_creations
              end)
            b.txs;
          parent := b.header.state_root)
        blocks;
      let hits = Obs.count parent_hits - hits0 in
      Printf.printf
        "parallel-ci: %-8s static %-3s %d blocks, %d txs, %d aborted, %d statically serial, \
         %d fork reads served by the master, %d commit-loop AP hits, %d/%d creations served \
         by the AP\n%!"
        name
        (if static_partition then "on" else "off")
        (List.length blocks) !txs !aborted !serial hits !inline_hits !served_creations
        !creations;
      (* the partition prefetches the master: forks must read from it *)
      if static_partition && name = "transfer" && hits = 0 then
        fail "parallel-ci: no fork read was served by the prefetched master";
      (* what the partition lets through must still meet the dynamic check *)
      if static_partition && name = "mixed" && !aborted = 0 then
        fail "parallel-ci: no partitioned mixed transaction was aborted at commit";
      (* serialized and rerun transactions take their AP, like speculation *)
      if static_partition && name = "mixed" && !inline_hits = 0 then
        fail "parallel-ci: no partitioned mixed transaction committed through its AP in \
              the commit loop";
      (* creations are built and served like calls *)
      if name = "mixed" && !creations > 0 && !served_creations = 0 then
        fail "parallel-ci: no mixed contract creation committed through its AP")
    [ false; true ];
  (record, blocks)

(* Minor words per transaction of the sequential apply and of the inline
   parallel apply (a jobs=1 pool) over the transfer recording's blocks,
   with Obs off.  On one domain both counts are deterministic (1065 and
   1838).  These transactions touch no storage, so each bound fails if
   an account record builds storage tables before its first slot access
   (1772 and 3019 words then), effect extraction builds a table per
   touched address, or the commit decodes the stored trie nodes its writes
   go through and reads and writes account records through [Rlp.item]
   trees (1556 and 2330). *)
let max_seq_words_per_tx = 1159.0
let max_par_words_per_tx = 2008.0

let words_gate ((record : Netsim.Record.t), blocks) =
  let bk = record.backend in
  let pool = Chain.Stf.create_pool ~jobs:1 () in
  let words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let seq = ref 0.0 and par = ref 0.0 and txs = ref 0 in
  let parent = ref record.genesis_root in
  List.iter
    (fun (b : Chain.Block.t) ->
      let root = !parent in
      let benv = Chain.Stf.block_env_of_header b.header ~block_hash:Netsim.Record.block_hash in
      let ap = Runner.block_aps (State.Statedb.create bk ~root) benv b.txs in
      seq := !seq +. words (fun () -> Chain.Stf.apply_txs (State.Statedb.create bk ~root) benv b.txs);
      par :=
        !par
        +. words (fun () ->
               Chain.Stf.apply_txs_parallel ~pool ~ap (State.Statedb.create bk ~root) benv b.txs);
      txs := !txs + List.length b.txs;
      parent := b.header.state_root)
    blocks;
  let seq = !seq /. float_of_int !txs and par = !par /. float_of_int !txs in
  Printf.printf
    "parallel-ci: transfer minor words per tx: sequential apply %.0f (bound %.0f), inline \
     parallel apply %.0f (bound %.0f)\n%!"
    seq max_seq_words_per_tx par max_par_words_per_tx;
  if seq > max_seq_words_per_tx || par > max_par_words_per_tx then
    fail "parallel-ci: transfer apply allocates above its words-per-tx bound"

let parallel () =
  let lanes = [ Runner.Apply ] in
  let r = Runner.sweep ~lanes ~corpus:"corpus" ~seed:1301 ~iters:8 () in
  judge "parallel-ci" ~lanes r;
  let t = r.tally in
  Printf.printf
    "parallel-ci: %d scenarios (%d corpus files, all forks, + 8 generated), %d txs applied \
     at jobs=1 and jobs=4, static partitioning off and on; %d aborts, %d forced reruns, %d \
     AP hits\n%!"
    t.scenarios r.corpus_files t.txs t.aborted t.forced t.apply_ap_hits;
  if t.aborted = 0 then fail "parallel-ci: the Apply sweep aborted no transaction at commit";
  (* disjoint transfers over 2000 users barely conflict; AMM swaps all
     serialize on one pair's reserves; the default mix sits between *)
  let transfer =
    record_workload ~name:"transfer" ~seed:7001 ~n_users:2000
      [ (Workload.Gen.Eth_transfer, 1.0) ]
  in
  ignore (record_workload ~name:"amm" ~seed:7002 ~n_users:120 [ (Workload.Gen.Amm_swap, 1.0) ]);
  ignore (record_workload ~name:"mixed" ~seed:7003 ~n_users:120 Workload.Gen.default_mix);
  words_gate transfer;
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

(* The dice count pins: the DiCE default-mix recording of
   perfbench/dice.ml (seed 101, lengthened from 110 s until it holds 1000
   canonical transactions) replayed once under Forerunner at jobs=1.
   Every count below is deterministic on one domain, so a change meant to
   leave execution alone (deleting a shortcut shape no traffic takes, say)
   must leave each one exactly as it was, and every recomputed root must
   equal its header.  [shortcuts] sums the memo alternatives stored in the
   APs of the heard transactions. *)
let dice_pins =
  [ ("heard", 1161); ("perfect", 679); ("imperfect", 434); ("missed", 48); ("unheard", 37);
    ("ap.violations", 47); ("ap.instrs_skipped", 9037); ("ap.instrs_executed", 17085);
    ("ap.shortcut_hits", 2011); ("ap.guard_checks", 4177); ("shortcuts", 4625);
    ("contexts", 8072) ]

let dice () =
  let rec record duration =
    let params = { Netsim.Sim.default_params with seed = 101; duration } in
    let r = Netsim.Sim.run ~params () in
    if r.n_txs >= 1000 then r else record (duration *. 1.25)
  in
  let record = record 110.0 in
  let names =
    [ "ap.violations"; "ap.instrs_skipped"; "ap.instrs_executed"; "ap.shortcut_hits";
      "ap.guard_checks" ]
  in
  let counters = List.map Obs.counter names in
  let before = List.map Obs.count counters in
  Obs.set_enabled true;
  let r =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
    Core.Node.replay ~config:{ Core.Node.default_config with jobs = 1 }
      ~policy:Core.Node.Forerunner record
  in
  let obs = List.map2 (fun c b -> Obs.count c - b) counters before in
  List.iter
    (fun (b : Core.Node.block_record) ->
      if not b.root_ok then fail "dice-ci: ROOT MISMATCH at block %Ld" b.number)
    r.blocks;
  let txs = List.filter (fun (t : Core.Node.tx_record) -> t.canonical) r.txs in
  let outcome o = List.length (List.filter (fun (t : Core.Node.tx_record) -> t.outcome = o) txs) in
  let heard = List.filter (fun (t : Core.Node.tx_record) -> t.heard) txs in
  let with_ap = List.filter (fun (t : Core.Node.tx_record) -> t.ap_futures > 0) heard in
  let shortcuts =
    List.fold_left (fun a (t : Core.Node.tx_record) -> a + t.ap_shortcuts) 0 with_ap
  in
  let got =
    [ ("heard", List.length heard); ("perfect", outcome Core.Node.O_perfect);
      ("imperfect", outcome Core.Node.O_imperfect); ("missed", outcome Core.Node.O_missed);
      ("unheard", outcome Core.Node.O_unheard) ]
    @ List.combine names obs
    @ [ ("shortcuts", shortcuts); ("contexts", r.spec_contexts) ]
  in
  let per a b = float_of_int a /. float_of_int (max 1 b) in
  Printf.printf
    "dice-ci: %d blocks, %d canonical txs, every root equals its header; %s; %.2f shortcuts \
     per AP, %.2f contexts per heard tx\n%!"
    (List.length r.blocks) (List.length txs)
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) got))
    (per shortcuts (List.length with_ap))
    (per r.spec_contexts (List.length heard));
  let drifted =
    List.filter_map
      (fun ((k, pinned), (_, v)) ->
        if v = pinned then None else Some (Printf.sprintf "%s %d (pinned %d)" k v pinned))
      (List.combine dice_pins got)
  in
  if drifted <> [] then fail "dice-ci: counts drifted: %s" (String.concat ", " drifted)

let () =
  match Sys.argv with
  | [| _; "fuzz" |] -> fuzz ()
  | [| _; "parallel" |] -> parallel ()
  | [| _; "analysis" |] -> analysis ()
  | [| _; "bca" |] -> bca ()
  | [| _; "dice" |] -> dice ()
  | _ -> fail "usage: lanes_ci.exe fuzz|parallel|analysis|bca|dice"
