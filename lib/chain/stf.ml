(* The block-level state transition function: execute a block's transactions
   in order against a Statedb and commit.  Used by miners to fill in the
   state root and by every node to validate it.

   Two ways to run a block:

   - [apply_txs]: the sequential reference — execute in consensus order on
     the master state.

   - [apply_txs_parallel]: conflict-aware optimistic concurrency (DESIGN.md
     §10, after Saraph & Herlihy).  Every transaction is pre-executed on a
     worker domain against a *private* Statedb at the parent root — through
     its AP fast path when one is available and its constraints hold,
     through the interpreter otherwise — recording its read set (statedb
     touch hooks) and its write set (journal-derived change list).  Commit
     then walks the transactions in consensus order on the caller's domain:
     a transaction whose read set is disjoint from everything committed
     before it gets its extracted effects replayed onto the master state;
     one that read a location an earlier transaction wrote speculated
     against a state the sequential schedule never produces, so it is
     aborted and rerun on the master state.  The committed root is
     byte-identical to [apply_txs] — the fuzz oracle and the @parallel
     tests pin this.

   Coinbase commutativity: every transaction credits the miner fee, so the
   coinbase balance would serialize all pairs.  Fee-like coinbase balance
   updates commute (they are additions), so the coinbase *account* is
   excluded from read/write sets and each transaction's net coinbase credit
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

(* Location keys for the conflict manager.  [key_account] covers balance,
   nonce and existence; a slot read pairs its exact key with the owner's
   destruct-domain key, so a self-destruct (which invalidates every slot at
   once) conflicts with slot readers without wildcard matching. *)
let key_account a = "a:" ^ Address.to_bytes a
let key_code a = "c:" ^ Address.to_bytes a
let key_slot a k = "s:" ^ Address.to_bytes a ^ U256.to_bytes_be k
let key_destruct a = "d:" ^ Address.to_bytes a

let read_keys ~coinbase touches =
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  let push k =
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      out := k :: !out
    end
  in
  List.iter
    (fun tc ->
      match tc with
      | Statedb.T_account a -> if not (Address.equal a coinbase) then push (key_account a)
      | Statedb.T_code a -> push (key_code a)
      | Statedb.T_slot (a, k) ->
        push (key_slot a k);
        push (key_destruct a))
    touches;
  !out

let write_keys ~coinbase changes =
  List.concat_map
    (fun (ch : Statedb.change) ->
      if Address.equal ch.ch_addr coinbase then []
      else begin
        let acct =
          ch.ch_balance <> None || ch.ch_nonce <> None || ch.ch_created || ch.ch_destructed
        in
        let ks = List.map (fun (k, _) -> key_slot ch.ch_addr k) ch.ch_slots in
        let ks = if acct then key_account ch.ch_addr :: ks else ks in
        let ks =
          if ch.ch_code_hash <> None || ch.ch_destructed then key_code ch.ch_addr :: ks
          else ks
        in
        if ch.ch_destructed then key_destruct ch.ch_addr :: ks else ks
      end)
    changes

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
  sp_reads : string list;
  sp_changes : Statedb.change list; (* coinbase record excluded *)
  sp_writes : string list;
  sp_cb_delta : U256.t; (* net coinbase credit (the fee, typically) *)
  sp_forced : bool; (* must rerun sequentially regardless of conflicts *)
  sp_ap_hit : bool;
}

type pool = spec Sched.t

let create_pool ~jobs () : pool = Sched.create ~jobs ()
let pool_jobs (p : pool) = Sched.jobs p
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

(* Speculative phase: one transaction on a private state at the parent
   root.  Runs on a worker domain — it must not touch the master [Statedb]
   or any trie being written (the caller guarantees the backend is
   quiescent while the block executes). *)
let speculate_one ?spec bk ~parent_root ~ap (benv : Evm.Env.block_env) idx (tx : Evm.Env.tx)
    () =
  let st = Statedb.create bk ~root:parent_root in
  let cb0 = Statedb.get_balance st benv.coinbase in
  Statedb.set_tracking st true;
  let mark = Statedb.snapshot st in
  let receipt, ap_hit =
    match if tx.to_ = None then None else ap tx with
    | Some prog -> (
      (* creations are excluded above: an AP path never carries the
         receipt's [contract_address] *)
      match Ap.Exec.execute ?spec prog st benv tx with
      | Ap.Exec.Hit (r, _) -> (r, true)
      | Ap.Exec.Violation -> (Evm.Processor.execute_tx ?spec st benv tx, false))
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
    sp_reads = read_keys ~coinbase:benv.coinbase (Statedb.touches st);
    sp_changes =
      List.filter
        (fun (ch : Statedb.change) -> not (Address.equal ch.ch_addr benv.coinbase))
        changes;
    sp_writes = write_keys ~coinbase:benv.coinbase changes;
    sp_cb_delta = U256.sub cb1 cb0;
    sp_forced = forced;
    sp_ap_hit = ap_hit;
  }

let no_ap : Evm.Env.tx -> Ap.Program.t option = fun _ -> None

(* ---- static pre-partitioning (lib/bca) ----

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
   is stripped from the predictions exactly as [read_keys]/[write_keys]
   strip it from the dynamic sets: fee credits commute. *)

let empty_prediction =
  {
    Bca.p_wild = false;
    p_r_accounts = [];
    p_w_accounts = [];
    p_codes = [];
    p_r_slots = [];
    p_w_slots = [];
    p_r_slot_wild = [];
    p_w_slot_wild = [];
  }

let obs_static_serial = Obs.counter "stf.parallel.static_serial"

let static_partition_plan ~spec st (benv : Evm.Env.block_env) txs_arr =
  let strip (p : Bca.prediction) =
    if p.Bca.p_wild then p
    else
      let f = List.filter (fun a -> not (Address.equal a benv.coinbase)) in
      { p with Bca.p_r_accounts = f p.Bca.p_r_accounts; p_w_accounts = f p.Bca.p_w_accounts }
  in
  let n = Array.length txs_arr in
  let serial = Array.make n false in
  let acc = ref empty_prediction in
  Array.iteri
    (fun j tx ->
      let p = strip (Bca.predict_tx ~spec ~coinbase:benv.coinbase st tx) in
      if p.Bca.p_wild then serial.(j) <- true
      else begin
        if Bca.overlap p !acc then serial.(j) <- true;
        acc :=
          {
            Bca.p_wild = false;
            p_r_accounts = p.Bca.p_r_accounts @ !acc.Bca.p_r_accounts;
            p_w_accounts = p.Bca.p_w_accounts @ !acc.Bca.p_w_accounts;
            p_codes = p.Bca.p_codes @ !acc.Bca.p_codes;
            p_r_slots = p.Bca.p_r_slots @ !acc.Bca.p_r_slots;
            p_w_slots = p.Bca.p_w_slots @ !acc.Bca.p_w_slots;
            p_r_slot_wild = p.Bca.p_r_slot_wild @ !acc.Bca.p_r_slot_wild;
            p_w_slot_wild = p.Bca.p_w_slot_wild @ !acc.Bca.p_w_slot_wild;
          }
      end)
    txs_arr;
  serial

let apply_txs_parallel ?pool ?(ap = no_ap) ?spec ?(static_partition = true) st
    (benv : Evm.Env.block_env) txs =
  (* resolve once on the caller's domain: worker-domain speculation and the
     commit-phase reruns must run under the same fork *)
  let spec = match spec with Some s -> s | None -> !Spec.current in
  if Statedb.snapshot st <> 0 then
    invalid_arg "apply_txs_parallel: master state has an open journal";
  let bk = Statedb.backend st in
  let parent_root = Statedb.root st in
  let owned, sched =
    match pool with
    | Some p -> (None, p)
    | None ->
      let p = create_pool ~jobs:1 () in
      (Some p, p)
  in
  Fun.protect ~finally:(fun () -> Option.iter shutdown_pool owned) @@ fun () ->
  let txs_arr = Array.of_list txs in
  let n_txs = Array.length txs_arr in
  (* static pre-partition: transactions the footprints prove must
     serialize skip the speculative phase entirely *)
  let serial =
    if static_partition then
      Obs.span "stf.parallel.partition" (fun () ->
          static_partition_plan ~spec st benv txs_arr)
    else Array.make n_txs false
  in
  (* speculative phase: fan the block out across the pool's domains *)
  let n_submitted = ref 0 in
  Obs.span "stf.parallel.exec" (fun () ->
      Array.iteri
        (fun idx tx ->
          if not serial.(idx) then begin
            incr n_submitted;
            Sched.submit sched ~hash:(Evm.Env.tx_hash tx) ~root:parent_root
              ~priority:tx.Evm.Env.gas_price
              (speculate_one ~spec bk ~parent_root ~ap benv idx tx)
          end)
        txs_arr;
      Sched.barrier sched);
  let results : spec option array = Array.make n_txs None in
  List.iter
    (fun (r : spec Sched.result) ->
      match r.r_value with
      | Ok sp -> results.(sp.sp_idx) <- Some sp
      | Error e -> raise e)
    (Sched.drain sched);
  let n_results = Array.fold_left (fun a r -> if r <> None then a + 1 else a) 0 results in
  if n_results <> !n_submitted then
    invalid_arg "apply_txs_parallel: speculation result count mismatch";
  (* commit phase: consensus order, conflict check, abort-and-rerun *)
  let conflict = Sched.Conflict.create () in
  let aborted = ref 0 and forced = ref 0 and ap_hits = ref 0 in
  let static_serial = ref 0 in
  let commit_ns = ref 0 in
  (* sequential execution on the master state: by induction it holds
     exactly the sequential prefix, so this execution is the sequential
     one; its write keys feed the conflict manager so later speculated
     transactions abort correctly *)
  let run_inline idx tx =
    let mark = Statedb.snapshot st in
    let r = Evm.Processor.execute_tx ~spec st benv tx in
    let changes = Statedb.changes_since st mark in
    Sched.Conflict.commit conflict ~index:idx (write_keys ~coinbase:benv.coinbase changes);
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
            run_inline idx tx
          | Some sp ->
            let clash =
              if sp.sp_forced then begin
                incr forced;
                true
              end
              else
                match Sched.Conflict.check conflict sp.sp_reads with
                | Some _ -> incr aborted; true
                | None -> false
            in
            if clash then begin
              Obs.incr Sched.Conflict.obs_reruns;
              run_inline sp.sp_idx tx
            end
            else begin
              if sp.sp_ap_hit then incr ap_hits;
              Statedb.apply_changes st sp.sp_changes;
              if not (U256.is_zero sp.sp_cb_delta) then
                Statedb.add_balance st benv.coinbase sp.sp_cb_delta;
              Sched.Conflict.commit conflict ~index:sp.sp_idx sp.sp_writes;
              sp.sp_receipt
            end
        in
        commit_ns := !commit_ns + Int64.to_int (Int64.sub (Obs.now_ns ()) t0);
        receipt)
  in
  Obs.add Sched.Conflict.obs_aborts !aborted;
  Obs.incr obs_par_blocks;
  Obs.add obs_par_txs n_txs;
  if !Obs.enabled then begin
    Obs.set Sched.Conflict.obs_conflict_rate
      (float_of_int (!aborted + !forced) /. float_of_int (max 1 n_txs));
    Obs.observe_int Sched.Conflict.obs_block_aborts (!aborted + !forced);
    Obs.observe_int Sched.Conflict.obs_block_commits n_txs
  end;
  let state_root = Obs.span "stf.parallel.commit" (fun () -> Statedb.commit st) in
  let gas_used =
    List.fold_left (fun acc (r : Evm.Processor.receipt) -> acc + r.gas_used) 0 receipts
  in
  ( { state_root; receipts; gas_used },
    {
      par_jobs = Sched.jobs sched;
      par_txs = n_txs;
      par_aborted = !aborted;
      par_forced = !forced;
      par_reruns = !aborted + !forced;
      par_static_serial = !static_serial;
      par_ap_hits = !ap_hits;
      par_commit_ns = !commit_ns;
    } )
