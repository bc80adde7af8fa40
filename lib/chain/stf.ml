(* The block-level state transition function: execute a block's transactions
   in order against a Statedb and commit.  Used by miners to fill in the
   state root and by every node to validate it.

   Two ways to run a block:

   - [apply_txs]: the sequential reference — execute in consensus order on
     the master state.

   - [apply_txs_parallel]: conflict-aware optimistic concurrency (DESIGN.md
     §10, after Saraph & Herlihy).  Every transaction is pre-executed on a
     worker domain against a private fork of the master state (read-only
     until the barrier, prefetched by the static partition) — through its
     AP fast path when one is available and its constraints hold, through
     the interpreter otherwise — recording its read set (the fork's touch
     log) and its write set (journal-derived change list).  Commit then
     walks the transactions in consensus order on the caller's domain,
     folding every committed write set into one [Bca.Union] — the same
     conflict set the static partition uses: a transaction whose reads
     meet none of those writes gets its extracted effects replayed onto
     the master state; one that read a location an earlier transaction
     wrote speculated against a state the sequential schedule never
     produces, so it is aborted and rerun on the master state.  The
     committed root is byte-identical to [apply_txs] — the fuzz oracle and
     the @parallel tests pin this.

   Coinbase commutativity: every transaction credits the miner fee, so the
   coinbase balance would serialize all pairs.  Fee-like coinbase balance
   updates commute (they are additions), so the coinbase's writes are
   left out of the conflict set and each transaction's net coinbase credit
   is applied as a delta at commit.  Transactions that interact with the
   coinbase non-commutatively (sent by it, decreasing its balance, or
   touching its nonce/code/storage) are force-rerun sequentially; an
   explicit BALANCE(coinbase) read inside a contract is invisible to this
   scheme and is the one documented unsoundness — absent from the workload,
   and caught by per-block root validation if it ever appears. *)

open State

type block_result = {
  state_root : string;
  receipts : Evm.Processor.receipt list;
  gas_used : int;
}

let block_env_of_header (h : Block.header) ~block_hash : Evm.Env.block_env =
  {
    coinbase = h.coinbase;
    timestamp = h.timestamp;
    number = h.number;
    difficulty = h.difficulty;
    gas_limit = h.gas_limit;
    chain_id = 1;
    block_hash;
  }

(* ---- sequential ---- *)

let apply_txs ?spec st benv txs =
  let receipts = List.map (fun tx -> Evm.Processor.execute_tx ?spec st benv tx) txs in
  let state_root = Statedb.commit st in
  let gas_used =
    List.fold_left (fun acc (r : Evm.Processor.receipt) -> acc + r.gas_used) 0 receipts
  in
  { state_root; receipts; gas_used }

let check_valid ~what receipts =
  List.iter
    (fun (r : Evm.Processor.receipt) ->
      match r.status with
      | Invalid reason ->
        invalid_arg (Printf.sprintf "%s: invalid tx in block: %s" what reason)
      | Success | Reverted -> ())
    receipts

(* Execute all transactions of [b] against [st] (which must be at the parent
   state), committing at the end.  Raises [Invalid_argument] if any
   transaction is invalid — a correctly mined block never contains one. *)
let apply_block ?spec st ~block_hash (b : Block.t) =
  let benv = block_env_of_header b.header ~block_hash in
  let r = apply_txs ?spec st benv b.txs in
  check_valid ~what:"apply_block" r.receipts;
  r

(* ---- parallel ---- *)

(* A non-commutative coinbase interaction the delta scheme cannot express:
   anything beyond a pure balance increase forces a sequential rerun. *)
let coinbase_clash ~coinbase (changes : Statedb.change list) =
  List.exists
    (fun (ch : Statedb.change) ->
      Address.equal ch.ch_addr coinbase
      && (ch.ch_nonce <> None || ch.ch_code_hash <> None || ch.ch_slots <> []
         || ch.ch_destructed))
    changes

type spec = {
  sp_idx : int;
  sp_receipt : Evm.Processor.receipt;
  sp_reads : Statedb.touch list; (* the fork's touch log *)
  sp_changes : Statedb.change list; (* coinbase record excluded *)
  sp_cb_delta : U256.t; (* net coinbase credit (the fee, typically) *)
  sp_forced : bool; (* must rerun sequentially regardless of conflicts *)
  sp_ap_hit : bool;
}

type pool = spec Sched.t

let create_pool ~jobs () : pool = Sched.create ~jobs ()
let shutdown_pool (p : pool) = Sched.shutdown p

type par_stats = {
  par_jobs : int;
  par_txs : int;
  par_aborted : int; (* read/write conflicts: speculation discarded *)
  par_forced : int; (* non-commutative coinbase patterns *)
  par_reruns : int; (* sequential re-executions = aborted + forced *)
  par_static_serial : int; (* statically partitioned out: never speculated *)
  par_ap_hits : int; (* speculative executions through the AP fast path *)
  par_commit_ns : int;
}

let obs_par_blocks = Obs.counter "stf.parallel.blocks"
let obs_par_txs = Obs.counter "stf.parallel.txs"
let obs_par_aborts = Obs.counter "stf.parallel.aborts"
let obs_par_reruns = Obs.counter "stf.parallel.reruns"
let obs_par_block_aborts = Obs.histogram "stf.parallel.block_aborts"

(* Speculative phase: one transaction on a fork of the master state.  Runs
   on a worker domain; the master is only read between the fan-out and the
   barrier, so every fork may share it (the caller guarantees the backend
   is quiescent while the block executes). *)
let speculate_one ?spec master ~ap (benv : Evm.Env.block_env) idx (tx : Evm.Env.tx) () =
  let st = Statedb.fork master in
  let cb0 = Statedb.get_balance st benv.coinbase in
  Statedb.set_tracking st true;
  let mark = Statedb.snapshot st in
  let receipt, ap_hit =
    match if tx.to_ = None then None else ap tx with
    | Some prog ->
      (* creations are excluded above: an AP path never carries the
         receipt's [contract_address] *)
      let r, stats = Ap.Exec.execute_or_fallback ?spec prog st benv tx in
      (r, Option.is_some stats)
    | None -> (Evm.Processor.execute_tx ?spec st benv tx, false)
  in
  Statedb.set_tracking st false;
  let changes = Statedb.changes_since st mark in
  let cb1 = Statedb.get_balance st benv.coinbase in
  let forced =
    Address.equal tx.sender benv.coinbase
    || coinbase_clash ~coinbase:benv.coinbase changes
    || U256.lt cb1 cb0 (* balance decreased: not a commutative credit *)
  in
  {
    sp_idx = idx;
    sp_receipt = receipt;
    sp_reads = Statedb.touches st;
    sp_changes =
      List.filter
        (fun (ch : Statedb.change) -> not (Address.equal ch.ch_addr benv.coinbase))
        changes;
    sp_cb_delta = U256.sub cb1 cb0;
    sp_forced = forced;
    sp_ap_hit = ap_hit;
  }

let no_ap : Evm.Env.tx -> Ap.Program.t option = fun _ -> None

(* ---- static pre-partitioning and prefetch (lib/bca) ----

   Before speculating, concretize each transaction's static footprint and
   serialize — in consensus order, on the master state, without spending a
   worker slot — every transaction whose predicted write set may intersect
   an earlier transaction's predicted read/write set.  The decision is a
   pure heuristic: a wrongly-parallelized transaction is still caught by
   the dynamic conflict check at commit, and a wrongly-serialized one only
   costs the skipped speculation — the committed root is byte-identical
   either way.  Wild footprints (creations, unresolved call targets)
   serialize themselves but are NOT folded into the running union, so one
   opaque transaction does not serialize the rest of the block; if it
   truly conflicts, the dynamic check catches the overlap.  The coinbase
   is stripped from the predictions exactly as [Bca.Union.add_changes]
   strips it from the committed writes: fee credits commute.

   The same pass is the block's prefetch: every predicted account and slot,
   the senders and the coinbase included, is loaded into the master state,
   so the forks of the speculative phase copy it from the master's cache
   and the commit loop finds it warm. *)

let obs_static_serial = Obs.counter "stf.parallel.static_serial"

let partition_and_prefetch ~spec st (benv : Evm.Env.block_env) txs_arr =
  let not_coinbase = List.filter (fun a -> not (Address.equal a benv.coinbase)) in
  let union = Bca.Union.create () in
  Array.map
    (fun tx ->
      let p = Bca.predict_tx ~spec ~coinbase:benv.coinbase st tx in
      Statedb.warm st
        (List.map (fun a -> Statedb.T_account a) (p.p_r_accounts @ p.p_w_accounts)
        @ List.map (fun (a, k) -> Statedb.T_slot (a, k)) (p.p_r_slots @ p.p_w_slots));
      let p =
        {
          p with
          Bca.p_r_accounts = not_coinbase p.Bca.p_r_accounts;
          p_w_accounts = not_coinbase p.Bca.p_w_accounts;
        }
      in
      let serial = Bca.Union.overlaps union p in
      Bca.Union.add union p;
      serial)
    txs_arr

let apply_txs_parallel ~pool ?(ap = no_ap) ?spec ?(static_partition = true) st
    (benv : Evm.Env.block_env) txs =
  (* resolve once on the caller's domain: worker-domain speculation and the
     commit-phase reruns must run under the same hardfork *)
  let spec = match spec with Some s -> s | None -> !Spec.current in
  if Statedb.snapshot st <> 0 then
    invalid_arg "apply_txs_parallel: master state has an open journal";
  let txs_arr = Array.of_list txs in
  let n_txs = Array.length txs_arr in
  (* static pre-partition: transactions the footprints prove must
     serialize skip the speculative phase entirely *)
  let serial =
    if static_partition then
      Obs.span "stf.parallel.partition" (fun () ->
          partition_and_prefetch ~spec st benv txs_arr)
    else Array.make n_txs false
  in
  (* speculative phase: fan the block out across the pool's domains, each
     transaction on its own fork of the (now read-only) master; keyed by
     block index, which is how the results are placed *)
  let n_submitted = ref 0 in
  Obs.span "stf.parallel.exec" (fun () ->
      Array.iteri
        (fun idx tx ->
          if not serial.(idx) then begin
            incr n_submitted;
            Sched.submit pool ~hash:(string_of_int idx) ~priority:tx.Evm.Env.gas_price
              (speculate_one ~spec st ~ap benv idx tx)
          end)
        txs_arr;
      Sched.barrier pool);
  let results : spec option array = Array.make n_txs None in
  List.iter
    (fun (r : spec Sched.result) ->
      match r.r_value with
      | Ok sp -> results.(sp.sp_idx) <- Some sp
      | Error e -> raise e)
    (Sched.drain pool);
  let n_results = Array.fold_left (fun a r -> if r <> None then a + 1 else a) 0 results in
  if n_results <> !n_submitted then
    invalid_arg "apply_txs_parallel: speculation result count mismatch";
  (* commit phase: consensus order, conflict check, abort-and-rerun *)
  let written = Bca.Union.create () in
  let aborted = ref 0 and forced = ref 0 and ap_hits = ref 0 in
  let static_serial = ref 0 in
  let commit_ns = ref 0 in
  (* sequential execution on the master state: by induction it holds
     exactly the sequential prefix, so this execution is the sequential
     one; its writes join the conflict set so later speculated
     transactions abort correctly *)
  let run_inline tx =
    let mark = Statedb.snapshot st in
    let r = Evm.Processor.execute_tx ~spec st benv tx in
    let changes = Statedb.changes_since st mark in
    Bca.Union.add_changes written ~coinbase:benv.coinbase changes;
    r
  in
  let receipts =
    List.init n_txs (fun idx ->
        let tx = txs_arr.(idx) in
        let t0 = Obs.now_ns () in
        let receipt =
          match results.(idx) with
          | None ->
            (* statically partitioned out: first execution, not a rerun *)
            incr static_serial;
            Obs.incr obs_static_serial;
            run_inline tx
          | Some sp ->
            let clash =
              if sp.sp_forced then (incr forced; true)
              else if Bca.Union.reads_written written sp.sp_reads then (incr aborted; true)
              else false
            in
            if clash then begin
              Obs.incr obs_par_reruns;
              run_inline tx
            end
            else begin
              if sp.sp_ap_hit then incr ap_hits;
              Statedb.apply_changes st sp.sp_changes;
              if not (U256.is_zero sp.sp_cb_delta) then
                Statedb.add_balance st benv.coinbase sp.sp_cb_delta;
              Bca.Union.add_changes written ~coinbase:benv.coinbase sp.sp_changes;
              sp.sp_receipt
            end
        in
        commit_ns := !commit_ns + Int64.to_int (Int64.sub (Obs.now_ns ()) t0);
        receipt)
  in
  Obs.add obs_par_aborts !aborted;
  Obs.incr obs_par_blocks;
  Obs.add obs_par_txs n_txs;
  Obs.observe_int obs_par_block_aborts (!aborted + !forced);
  let state_root = Obs.span "stf.parallel.commit" (fun () -> Statedb.commit st) in
  let gas_used =
    List.fold_left (fun acc (r : Evm.Processor.receipt) -> acc + r.gas_used) 0 receipts
  in
  ( { state_root; receipts; gas_used },
    {
      par_jobs = Sched.jobs pool;
      par_txs = n_txs;
      par_aborted = !aborted;
      par_forced = !forced;
      par_reruns = !aborted + !forced;
      par_static_serial = !static_serial;
      par_ap_hits = !ap_hits;
      par_commit_ns = !commit_ns;
    } )
