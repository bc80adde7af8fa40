(* Conflict-aware parallel block apply (DESIGN.md §10): unit tests pinning
   abort/rerun counts on hand-built transfer pairs (a read/write conflict
   must abort and rerun when static partitioning is off, and be kept out of
   speculation when it is on; disjoint transfers must commit speculatively
   with zero aborts; a conflict hidden from the partition must still abort
   at commit; a statically serialized transaction runs its AP when the
   master state satisfies it and falls back to the interpreter when not),
   plus the qcheck property that the parallel state root is
   byte-identical to the sequential apply on random fuzz scenarios. *)

open State

let t name f = Alcotest.test_case name `Quick f
let u = U256.of_int
let addr i = Address.of_int (0x7A00 + i)
let ether = U256.of_string "1000000000000000000"

let benv : Evm.Env.block_env =
  {
    coinbase = Address.of_int 0xFEE;
    timestamp = 1_700_000_000L;
    number = 7L;
    difficulty = u 1000;
    gas_limit = 30_000_000;
    chain_id = 1;
    block_hash = (fun n -> Khash.Keccak.digest_u256 (Printf.sprintf "par-%Ld" n));
  }

let transfer ?(nonce = 0) ~sender ~to_ value : Evm.Env.tx =
  { sender; to_ = Some to_; nonce; value = u value; data = ""; gas_limit = 21_000;
    gas_price = u 2 }

(* One funded backend; sequential and parallel applies both start from
   [root0] and commit into it, so root equality is trie-node equality. *)
let world senders =
  let bk = Statedb.Backend.create () in
  let st = Statedb.create bk ~root:Statedb.empty_root in
  List.iter (fun a -> Statedb.set_balance st a ether) senders;
  (bk, Statedb.commit st)

let apply_both ?(jobs = 1) ?ap ?static_partition bk root txs =
  let seq =
    Chain.Stf.apply_txs (Statedb.create bk ~root) benv txs
  in
  let pool = Chain.Stf.create_pool ~jobs () in
  let par, stats =
    Chain.Stf.apply_txs_parallel ~pool ?ap ?static_partition (Statedb.create bk ~root) benv txs
  in
  Alcotest.(check string) "parallel root byte-identical to sequential"
    (Khash.Keccak.to_hex seq.Chain.Stf.state_root)
    (Khash.Keccak.to_hex par.Chain.Stf.state_root);
  (par, stats)

let test_disjoint () =
  let a = addr 1 and b = addr 2 and c = addr 3 and d = addr 4 in
  let bk, root = world [ a; c ] in
  let txs = [ transfer ~sender:a ~to_:b 5; transfer ~sender:c ~to_:d 7 ] in
  let par, stats = apply_both bk root txs in
  Alcotest.(check int) "no aborts on disjoint transfers" 0 stats.Chain.Stf.par_aborted;
  Alcotest.(check int) "no forced reruns" 0 stats.Chain.Stf.par_forced;
  Alcotest.(check int) "no reruns at all" 0 stats.Chain.Stf.par_reruns;
  Alcotest.(check int) "nothing statically serialized" 0 stats.Chain.Stf.par_static_serial;
  List.iter
    (fun (r : Evm.Processor.receipt) ->
      Alcotest.(check bool) "transfer succeeded" true
        (Evm.Processor.status_equal r.status Evm.Processor.Success))
    par.Chain.Stf.receipts

(* Both transfers credit the same recipient: tx1 (consensus order) writes
   X's balance, tx0 committed first — so tx1's speculative read of X (the
   credit reads the balance before adding) conflicts and must abort.  With
   static partitioning (the default) the overlapping footprints keep tx1
   out of speculation instead. *)
let test_conflicting_pair () =
  let a = addr 5 and b = addr 6 and x = addr 7 in
  let bk, root = world [ a; b ] in
  let txs = [ transfer ~sender:a ~to_:x 5; transfer ~sender:b ~to_:x 7 ] in
  let _, stats = apply_both ~static_partition:false bk root txs in
  Alcotest.(check int) "same-recipient pair aborts exactly once" 1
    stats.Chain.Stf.par_aborted;
  Alcotest.(check int) "the abort reran sequentially" 1 stats.Chain.Stf.par_reruns;
  let _, stats = apply_both bk root txs in
  Alcotest.(check int) "statically serialized, not speculated" 1
    stats.Chain.Stf.par_static_serial;
  Alcotest.(check int) "no abort when serialized up front" 0 stats.Chain.Stf.par_aborted

(* Same sender twice: the nonce-1 tx speculates against the parent root
   (nonce still 0) and comes out Invalid — the conflict on the sender
   account must abort it, and the sequential rerun must commit it as a
   success, exactly like the sequential apply. *)
let test_same_sender_pair () =
  let a = addr 8 and b = addr 9 in
  let bk, root = world [ a ] in
  let txs =
    [ transfer ~sender:a ~to_:b 5; transfer ~nonce:1 ~sender:a ~to_:b 7 ]
  in
  let par, stats = apply_both ~static_partition:false bk root txs in
  Alcotest.(check int) "nonce chain aborts the second tx" 1 stats.Chain.Stf.par_aborted;
  List.iter
    (fun (r : Evm.Processor.receipt) ->
      Alcotest.(check bool) "both commits succeeded" true
        (Evm.Processor.status_equal r.status Evm.Processor.Success))
    par.Chain.Stf.receipts;
  let _, stats = apply_both bk root txs in
  Alcotest.(check int) "nonce chain statically serialized" 1
    stats.Chain.Stf.par_static_serial

(* The same worlds, on real worker domains. *)
let test_jobs4_roots () =
  let a = addr 10 and b = addr 11 and x = addr 12 in
  let bk, root = world [ a; b ] in
  let txs =
    [ transfer ~sender:a ~to_:x 5; transfer ~sender:b ~to_:x 7;
      transfer ~nonce:1 ~sender:a ~to_:b 1 ]
  in
  let par, _ = apply_both ~jobs:4 bk root txs in
  Alcotest.(check int) "all receipts present" 3 (List.length par.Chain.Stf.receipts)

(* One master carried across two blocks: the second block's forks copy the
   accounts the first block wrote and committed from the master's cache,
   so they must see the committed values, at every setting. *)
let test_committed_master () =
  let a = addr 16 and b = addr 17 and x = addr 18 and d = addr 19 in
  let bk, root = world [ a; b ] in
  let block1 = [ transfer ~sender:a ~to_:x 5; transfer ~sender:b ~to_:d 7 ] in
  let block2 =
    [ transfer ~nonce:1 ~sender:a ~to_:d 1; transfer ~nonce:1 ~sender:b ~to_:x 3 ]
  in
  let seq = Statedb.create bk ~root in
  let roots_seq =
    List.map (fun txs -> (Chain.Stf.apply_txs seq benv txs).state_root) [ block1; block2 ]
  in
  List.iter
    (fun (jobs, static_partition) ->
      let pool = Chain.Stf.create_pool ~jobs () in
      let master = Statedb.create bk ~root in
      List.iter2
        (fun txs want ->
          let par, stats =
            Chain.Stf.apply_txs_parallel ~pool ~static_partition master benv txs
          in
          Alcotest.(check string) "root equals the sequential apply's"
            (Khash.Keccak.to_hex want)
            (Khash.Keccak.to_hex par.Chain.Stf.state_root);
          Alcotest.(check int) "no reruns" 0 stats.Chain.Stf.par_reruns)
        [ block1; block2 ] roots_seq)
    [ (1, false); (1, true); (4, true) ]

(* The dynamic check is the backstop behind the static partition.  Two
   increments of one counter slot conflict on it; the [N_footprint]
   narrowing drops SSTOREs from the footprints, so the partition sees two
   reads of the slot and speculates both.  The second tx read the slot the
   first wrote: it must be aborted and rerun, and the root must still equal
   the sequential apply's. *)
let test_backstop () =
  let a = addr 13 and b = addr 14 and counter = addr 15 in
  let bk = Statedb.Backend.create () in
  let st = Statedb.create bk ~root:Statedb.empty_root in
  List.iter (fun s -> Statedb.set_balance st s ether) [ a; b ];
  Statedb.set_code st counter Contracts.Counter.code;
  let root = Statedb.commit st in
  let bump sender : Evm.Env.tx =
    { sender; to_ = Some counter; nonce = 0; value = U256.zero;
      data = Contracts.Counter.increment_call; gas_limit = 100_000; gas_price = u 2 }
  in
  let txs = [ bump a; bump b ] in
  let _, stats = apply_both bk root txs in
  Alcotest.(check int) "unnarrowed: statically serialized" 1
    stats.Chain.Stf.par_static_serial;
  List.iter
    (fun jobs ->
      let _, stats =
        Fun.protect
          ~finally:(fun () -> Bca.seeded_narrowing := None)
          (fun () ->
            Bca.seeded_narrowing := Some Bca.N_footprint;
            apply_both ~jobs ~static_partition:true bk root txs)
      in
      let what = Printf.sprintf "jobs=%d: " jobs in
      Alcotest.(check int) (what ^ "both speculated") 0 stats.Chain.Stf.par_static_serial;
      Alcotest.(check int) (what ^ "second tx aborted") 1 stats.Chain.Stf.par_aborted;
      Alcotest.(check int) (what ^ "and rerun") 1 stats.Chain.Stf.par_reruns)
    [ 1; 4 ]

(* The commit loop's sequential executions take the supplied AP first, like
   the speculative phase.  The first transaction mints tokens to [b]; the
   partition serializes the second, [b]'s transfer of some of them, which
   then runs on the master state after the mint.  Its AP holds there when
   it was traced against that state, and is violated when it was traced
   against the parent, where [b] held no tokens and the transfer took the
   revert branch — then the interpreter runs it.  Either way the root is
   the sequential apply's. *)
let token_world () =
  let a = addr 20 and b = addr 21 and c = addr 22 and token = addr 23 in
  let bk = Statedb.Backend.create () in
  let st = Statedb.create bk ~root:Statedb.empty_root in
  List.iter (fun s -> Statedb.set_balance st s ether) [ a; b ];
  Statedb.set_code st token Contracts.Erc20.code;
  let root = Statedb.commit st in
  let call sender data : Evm.Env.tx =
    { sender; to_ = Some token; nonce = 0; value = U256.zero; data; gas_limit = 200_000;
      gas_price = u 2 }
  in
  ( bk,
    root,
    call a (Contracts.Erc20.mint_call ~to_:b ~amount:(u 100)),
    call b (Contracts.Erc20.transfer_call ~to_:c ~amount:(u 40)) )

let serial_ap ~traced_after_first =
  let bk, root, first, second = token_world () in
  let st = Statedb.create bk ~root in
  if traced_after_first then ignore (Evm.Processor.execute_tx st benv first);
  let ap = Ap.Program.create () in
  (match Fuzz.Runner.build_path st benv second with
  | Ok path -> Ap.Program.add_path ap path
  | Error e -> Alcotest.failf "builder rejected: %s" e);
  let st = Statedb.create bk ~root in
  ignore (Evm.Processor.execute_tx st benv first);
  Alcotest.(check bool) "the AP holds after the mint" traced_after_first
    (match Ap.Exec.execute ap st benv second with
    | Ap.Exec.Hit _ -> true
    | Ap.Exec.Violation -> false);
  let only_second (tx : Evm.Env.tx) =
    if Address.equal tx.sender second.sender then Some ap else None
  in
  List.iter
    (fun jobs ->
      let _, stats = apply_both ~jobs ~ap:only_second bk root [ first; second ] in
      let what = Printf.sprintf "jobs=%d: " jobs in
      Alcotest.(check int) (what ^ "transfer statically serialized") 1
        stats.Chain.Stf.par_static_serial;
      Alcotest.(check int) (what ^ "no speculation hit") 0 stats.Chain.Stf.par_ap_hits;
      Alcotest.(check int) (what ^ "commit-loop AP hits")
        (if traced_after_first then 1 else 0)
        stats.Chain.Stf.par_inline_ap_hits)
    [ 1; 4 ]

let test_serial_ap_hit () = serial_ap ~traced_after_first:true
let test_serial_ap_violation () = serial_ap ~traced_after_first:false

(* Random scenarios: storage-heavy generated contracts, applied as one
   block.  The runner's Apply lane compares the committed root and every
   receipt field at jobs=1 and jobs=4, static partitioning off and on,
   against the sequential apply. *)
let prop_random_root iter =
  Fuzz.Runner.run ~lanes:[ Fuzz.Runner.Apply ] ~label:"qcheck"
    (Fuzz.Generate.seeded ~seed:1301 iter)
  = []

let suite =
  [ t "disjoint transfers commit with zero aborts" test_disjoint;
    t "same-recipient pair aborts and reruns once" test_conflicting_pair;
    t "same-sender nonce chain aborts, commits via rerun" test_same_sender_pair;
    t "jobs=4 roots match on a mixed conflicting block" test_jobs4_roots;
    t "dynamic check catches a conflict the partition missed" test_backstop;
    t "forks of a committed master see its last block" test_committed_master;
    t "statically serialized tx commits through its satisfied AP" test_serial_ap_hit;
    t "statically serialized tx with a violated AP falls back" test_serial_ap_violation;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:10 ~name:"parallel apply ≡ sequential apply (random scenarios)"
         QCheck.(make Gen.(int_range 0 100))
         prop_random_root) ]
