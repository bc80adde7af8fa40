(* The @apstore alias: the template-store battery.

   1. Key discipline: every structurally-equivalent airdrop transaction
      maps to one key; every shape ingredient (target, selector, calldata
      length, nonzero-byte count, value zeroness, gas limit, fork)
      perturbs it; creations / precompiles / codeless targets get none.
   2. Store mechanics: single-flight reserve/publish/abandon, LRU
      eviction bounded by max_entries, and a 4-domain hammer asserting
      exactly one winner among 64 concurrent reservations per key.
   3. The differential oracle: a template built from ONE transaction's
      trace at the storm's highest gas limit, served to many perturbed
      transactions (different sender, recipient, amount, nonce, gas
      price, gas limit at every level), must produce receipts, logs and
      committed state roots byte-identical to both a freshly specialized
      per-tx AP and the plain interpreter; the static verifier must pass
      on the template; cross-fork serves, self-transfer aliasing and a
      call-carrying template (an AMM swap) served one gas below its
      traced limit must refuse (Violation), never corrupt.
   4. Node-level determinism: a Forerunner replay with the store enabled
      must produce identical per-tx outcomes and block results under
      jobs=1 and jobs=4.
   5. The storm gate: a 2,000-tx airdrop storm run with the store ON
      (one template, keyed and served) and OFF (a per-tx AP speculated
      for every transaction) must commit identical final roots, and ON
      must serve at least 90% of the storm from the template.

   Exit non-zero on any failure. *)

open State

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("apstore-ci: FAIL " ^ m); exit 1) fmt
let check b fmt = Printf.ksprintf (fun m -> if not b then fail "%s" m) fmt

let benv : Evm.Env.block_env =
  {
    coinbase = Address.of_int 0xC0FFEE;
    timestamp = 1_700_000_000L;
    number = 1000L;
    difficulty = U256.one;
    gas_limit = 12_000_000;
    chain_id = 1;
    block_hash = (fun n -> U256.of_int64 n);
  }

let token = Address.of_int 0x70C0

let make_storm () =
  let storm = Workload.Airdrop.create ~n_senders:32 ~seed:4242 ~token () in
  let bk = Statedb.Backend.create () in
  let root = Workload.Airdrop.genesis storm bk in
  (storm, bk, root)

(* ---- 1. key discipline ---- *)

let key_tests () =
  let storm, bk, root = make_storm () in
  let st = Statedb.create bk ~root in
  let spec = !Spec.current in
  let key tx =
    match Apstore.key_of_tx st spec tx with
    | Some k -> k
    | None -> fail "storm tx has no template key"
  in
  let a = Workload.Airdrop.tx storm and b = Workload.Airdrop.tx storm in
  check (not (Address.equal a.sender b.sender)) "fixture: distinct senders";
  check (String.equal (key a) (key b)) "same call shape must share one key";
  (* gas accounting is lifted into input registers and the ERC-20 never
     executes GAS, so neither the exact limit nor the calldata byte mix
     (intrinsic class) is pinned any more — both perturbations share *)
  check
    (String.equal (key a) (key { b with gas_limit = b.gas_limit + 1 }))
    "gas limit must not be pinned for GAS-free code";
  (* flip a nonzero amount byte to zero: same length, different intrinsic
     class, amount word still nonzero — shares too *)
  let zeroed = Bytes.of_string b.data in
  Bytes.set zeroed (String.length b.data - 1) '\000';
  check
    (String.equal (key a) (key { b with data = Bytes.to_string zeroed }))
    "nonzero-byte count must not be pinned for GAS-free code";
  check
    (not (String.equal (key a) (key { b with value = U256.one })))
    "value zeroness is part of the key";
  check
    (not (String.equal (key a) (key { b with data = b.data ^ "\000" })))
    "calldata length is part of the key";
  (* zero the WHOLE amount word: the transfer branches on it (lib/bca's
     control-flow-relevant word fact), so its zeroness is pinned *)
  let zero_amount = Bytes.of_string b.data in
  Bytes.fill zero_amount 36 (Bytes.length zero_amount - 36) '\000';
  check
    (not (String.equal (key a) (key { b with data = Bytes.to_string zero_amount })))
    "branch-relevant calldata word zeroness is part of the key";
  let resel = Bytes.of_string b.data in
  Bytes.set resel 0 '\xff';
  check
    (not (String.equal (key a) (key { b with data = Bytes.to_string resel })))
    "selector is part of the key (the dispatcher reads calldata[0..3])";
  (* a target whose code executes GAS keeps the full legacy gas pins *)
  let gassy = Address.of_int 0x9A55 in
  let stg = Statedb.create bk ~root in
  Contracts.Deploy.install_code stg gassy "\x5a\x50\x00" (* GAS; POP; STOP *);
  let gkey tx =
    match Apstore.key_of_tx stg spec tx with
    | Some k -> k
    | None -> fail "gassy target has no template key"
  in
  let g = { a with to_ = Some gassy } in
  check
    (not (String.equal (gkey g) (gkey { g with gas_limit = g.gas_limit + 1 })))
    "gas limit stays pinned for GAS-using code";
  let other_spec = Spec.resolve Spec.Berlin in
  check (other_spec.Spec.id <> spec.Spec.id) "fixture: different fork id";
  (match Apstore.key_of_tx st other_spec b with
  | Some k -> check (not (String.equal (key a) k)) "fork id is part of the key"
  | None -> fail "keyable tx lost its key under another fork");
  (* numeric fields are written at fixed width: on the GAS-using target
     (no selector or word pins), each pair below differs in one field only,
     by a multiple of 256, so a field cut to its low byte would collide *)
  check (String.equal (gkey g) (gkey g)) "the same tx keyed twice gets the same key";
  check
    (not (String.equal (gkey g) (gkey { g with data = g.data ^ String.make 256 '\000' })))
    "calldata lengths 256 apart key apart";
  check
    (not (String.equal (gkey g) (gkey { g with gas_limit = g.gas_limit + 256 })))
    "gas limits 256 apart key apart when gas is pinned";
  (match Apstore.key_of_tx stg other_spec g with
  | Some k -> check (not (String.equal (gkey g) k)) "the same tx under another fork keys apart"
  | None -> fail "GAS-using target lost its key under another fork");
  check (Apstore.key_of_tx st spec { a with to_ = None } = None) "creations have no key";
  check
    (Apstore.key_of_tx st spec { a with to_ = Some (Address.of_int 2) } = None)
    "precompile targets have no key";
  check
    (Apstore.key_of_tx st spec { a with to_ = Some (Address.of_int 4) } = None)
    "the identity precompile has no key";
  check
    (Apstore.key_of_tx st spec { a with to_ = Some (Address.of_int 0xD0D0) } = None)
    "codeless targets have no key";
  print_endline "apstore-ci: key discipline holds"

(* ---- 2. store mechanics ---- *)

let tiny_program () =
  let ap = Ap.Program.create () in
  ap.Ap.Program.fork <- 0;
  ap

let store_tests () =
  let s = Apstore.create ~max_entries:4 () in
  check (Apstore.reserve s "k1") "first reservation wins";
  check (not (Apstore.reserve s "k1")) "second reservation coalesces";
  check ((Apstore.stats s).Apstore.coalesced = 1) "coalesced miss counted";
  Apstore.abandon s "k1";
  check (Apstore.reserve s "k1") "abandoned key is reservable again";
  Apstore.publish s "k1" (tiny_program ());
  check (not (Apstore.reserve s "k1")) "resident key is not reservable";
  check (Apstore.find s "k1" <> None) "published entry is served";
  check (Apstore.find s "nope" = None) "absent key misses";
  check (Apstore.length s = 1) "one resident entry";
  (* LRU: fill to capacity, keep touching k1, then overflow — the evicted
     entries must be the untouched ones, never k1 *)
  List.iter (fun k -> Apstore.publish s k (tiny_program ())) [ "k2"; "k3"; "k4" ];
  ignore (Apstore.find s "k1");
  List.iter (fun k -> Apstore.publish s k (tiny_program ())) [ "k5"; "k6" ];
  check (Apstore.length s = 4) "eviction holds the entry bound";
  check ((Apstore.stats s).Apstore.evictions = 2) "two evictions at +2 overflow";
  check (Apstore.find s "k1" <> None) "recently-used entry survives eviction";
  check (Apstore.find s "k2" = None) "least-recently-used entry was evicted";
  check (Apstore.resident_bytes s > 0) "resident bytes accounted";
  (* byte bound: a store with a tiny budget evicts down to one entry *)
  let b = Apstore.create ~max_bytes:1 () in
  Apstore.publish b "k1" (tiny_program ());
  Apstore.publish b "k2" (tiny_program ());
  check (Apstore.length b <= 1) "byte bound enforced";
  print_endline "apstore-ci: store mechanics hold"

let hammer_tests () =
  let s = Apstore.create () in
  let keys = Array.init 8 (fun i -> Printf.sprintf "key%d" i) in
  let wins = Array.init 8 (fun _ -> Atomic.make 0) in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            (* 64 racing reservation attempts per key, across 4 domains *)
            for _ = 1 to 16 do
              Array.iteri
                (fun i k -> if Apstore.reserve s k then Atomic.incr wins.(i))
                keys
            done))
  in
  Array.iter Domain.join domains;
  Array.iteri
    (fun i w ->
      check (Atomic.get w = 1) "key %d: %d reservation winners, want exactly 1" i
        (Atomic.get w))
    wins;
  check ((Apstore.stats s).Apstore.inflight = 8) "all winners still in flight";
  check ((Apstore.stats s).Apstore.coalesced = (4 * 16 * 8) - 8) "losers coalesced";
  print_endline "apstore-ci: 4-domain single-flight hammer holds (64 racers per key)"

(* ---- 3. the differential oracle ---- *)

let receipts_agree ~what a b =
  List.iter
    (fun (field, detail) -> fail "%s: %s differs: %s" what field detail)
    (Evm.Processor.receipt_diffs a b)

(* The speculator's idiom: trace [tx] on [st], undo it, and specialize the
   trace into a one-path AP (a template when [template]). *)
let speculate ~template st tx =
  let snap = Statedb.snapshot st in
  let sink, get = Evm.Trace.collector () in
  let receipt = Evm.Processor.execute_tx ~trace:sink st benv tx in
  Statedb.revert st snap;
  Sevm.Builder.build ~template tx benv (get ()) receipt st
  |> Result.map (fun path ->
         let ap = Ap.Program.create () in
         Ap.Program.add_path ap path;
         ap)

let template_of bk ~root tx =
  match speculate ~template:true (Statedb.create bk ~root) tx with
  | Ok ap -> ap
  | Error e -> fail "template build failed: %s" e

let oracle_tests () =
  let storm, bk, root = make_storm () in
  (* the template: ONE transaction's trace, inputs lifted.  Trace the seed
     at the storm's highest gas limit: the transfer makes no call and never
     executes GAS, so the exact envelope (served limit - intrinsic >= the
     path's execution charge) admits every lower level too — the 96
     perturbed transactions then exercise the recomputed per-serve
     gas_used across all limit levels. *)
  let top_limit = Array.fold_left max 0 Workload.Airdrop.gas_limit_levels in
  let seed_tx = { (Workload.Airdrop.tx storm) with gas_limit = top_limit } in
  let template = template_of bk ~root seed_tx in
  check (Array.length template.Ap.Program.inputs > 0) "template lifted input registers";
  (match Analysis.Verify.verify template with
  | [] -> ()
  | vs -> fail "static verifier rejects the template (%d violations)" (List.length vs));
  (* three lanes evolve in lockstep from the same genesis: the plain
     interpreter, the ONE cached template serving everything, and a fresh
     per-tx AP specialized for every transaction.  96 txs over 32 senders
     walks every sender through nonces 0..2, so nonce progression and
     balance drift are exercised, not just the pristine first serve. *)
  (* the seed tx itself must hit its own template *)
  (let st = Statedb.create bk ~root in
   match Ap.Exec.execute template st benv seed_tx with
   | Ap.Exec.Violation -> fail "seed tx violated its own template"
   | Ap.Exec.Hit _ -> ());
  let st_ref = Statedb.create bk ~root in
  let st_tp = Statedb.create bk ~root in
  let st_sp = Statedb.create bk ~root in
  (* the generator burned seed_tx's nonce, so land it in every lane before
     serving the rest — otherwise its sender's next tx desyncs at nonce 1 *)
  List.iter
    (fun st -> ignore (Evm.Processor.execute_tx st benv seed_tx))
    [ st_ref; st_tp; st_sp ];
  let served = ref 0 in
  for i = 1 to 96 do
    let tx = Workload.Airdrop.tx storm in
    let r_ref = Evm.Processor.execute_tx st_ref benv tx in
    (match Ap.Exec.execute template st_tp benv tx with
    | Ap.Exec.Violation -> fail "storm tx %d violated the template" i
    | Ap.Exec.Hit (r_tp, _) ->
      incr served;
      receipts_agree ~what:"template vs interpreter" r_tp r_ref);
    (* freshly specialized per-tx AP must agree with the same serve *)
    match speculate ~template:false st_sp tx with
    | Error e -> fail "per-tx build failed: %s" e
    | Ok ap -> (
      match Ap.Exec.execute ap st_sp benv tx with
      | Ap.Exec.Violation -> fail "per-tx AP violated its own context"
      | Ap.Exec.Hit (r_sp, _) -> receipts_agree ~what:"template vs per-tx AP" r_sp r_ref)
  done;
  check (!served = 96) "all 96 perturbed serves hit";
  let root_ref = Statedb.commit st_ref in
  check
    (String.equal (Statedb.commit st_tp) root_ref)
    "template-served state root diverged from the interpreter";
  check
    (String.equal (Statedb.commit st_sp) root_ref)
    "per-tx-AP state root diverged from the interpreter";
  (* cross-fork serve must refuse before touching anything; back to the
     pristine root here, so pin the nonce to the genesis value *)
  let tx = { (Workload.Airdrop.tx storm) with nonce = 0 } in
  let st = Statedb.create bk ~root in
  (match Ap.Exec.execute ~spec:(Spec.resolve Spec.Berlin) template st benv tx with
  | Ap.Exec.Violation -> ()
  | Ap.Exec.Hit _ -> fail "cross-fork serve must be a Violation");
  (* sender==recipient aliasing: the template traced distinct balance
     slots; a self-transfer must refuse or match the interpreter exactly *)
  let self = { tx with data = Contracts.Erc20.transfer_call ~to_:tx.sender ~amount:U256.one } in
  let st_ref = Statedb.create bk ~root in
  let r_ref = Evm.Processor.execute_tx st_ref benv self in
  let root_ref = Statedb.commit st_ref in
  let st = Statedb.create bk ~root in
  (match Ap.Exec.execute template st benv self with
  | Ap.Exec.Violation -> ()
  | Ap.Exec.Hit (r, _) ->
    receipts_agree ~what:"self-transfer serve" r r_ref;
    check
      (String.equal (Statedb.commit st) root_ref)
      "self-transfer serve corrupted state");
  (* a trace with calls keeps the traced envelope: 63/64 forwarding hands
     each callee a share of the gas left, so one gas less is refused *)
  let pop = Workload.Population.make ~n_users:4 ~n_observers:1 in
  let bk = Statedb.Backend.create () in
  let root = Workload.Population.genesis pop bk in
  let swap : Evm.Env.tx =
    {
      sender = pop.users.(0);
      to_ = Some pop.pair;
      nonce = 0;
      value = U256.zero;
      data = Contracts.Amm.swap_call ~amount_in:(U256.of_int 1000) ~one_to_zero:false;
      gas_limit = 300_000;
      gas_price = U256.of_int 1_000_000_000;
    }
  in
  let swap_tp = template_of bk ~root swap in
  (let st = Statedb.create bk ~root in
   match Ap.Exec.execute swap_tp st benv swap with
   | Ap.Exec.Violation -> fail "swap tx violated its own template"
   | Ap.Exec.Hit (r, _) ->
     check (Evm.Processor.status_equal r.status Evm.Processor.Success) "swap failed");
  (let st = Statedb.create bk ~root in
   match Ap.Exec.execute swap_tp st benv { swap with gas_limit = swap.gas_limit - 1 } with
   | Ap.Exec.Violation ->
     check (String.equal (Statedb.commit st) root) "swap Violation wrote state"
   | Ap.Exec.Hit _ -> fail "call-carrying template served one gas below its traced limit");
  print_endline
    "apstore-ci: differential oracle holds (96 serves ≡ interpreter ≡ per-tx AP)"

(* ---- 4. node-level determinism with the store enabled ---- *)

let node_tests () =
  let params =
    {
      Netsim.Sim.default_params with
      seed = 9911;
      duration = 40.0;
      tx_rate = 10.0;
      tick_interval = Some 1.0;
    }
  in
  let record = Netsim.Sim.run ~params () in
  let run jobs =
    let config = { Core.Node.default_config with use_apstore = true; jobs } in
    (* replay itself raises on any state-root mismatch *)
    Core.Node.replay ~config ~policy:Core.Node.Forerunner record
  in
  let r1 = run 1 and r4 = run 4 in
  let tx_key (t : Core.Node.tx_record) = (t.hash, t.outcome, t.gas_used, t.block_number) in
  let block_key (b : Core.Node.block_record) = (b.number, b.root_ok, b.gas_used) in
  check
    (List.map tx_key r1.txs = List.map tx_key r4.txs)
    "jobs=1 vs jobs=4 tx outcomes diverged with the store on";
  check
    (List.map block_key r1.blocks = List.map block_key r4.blocks)
    "jobs=1 vs jobs=4 block results diverged with the store on";
  match (r1.apstore, r4.apstore) with
  | Some s1, Some s4 ->
    check (s1.Apstore.published >= 1) "no template was ever published";
    check
      (s1.Apstore.published = s4.Apstore.published)
      "published counts diverged across job counts (%d vs %d)" s1.Apstore.published
      s4.Apstore.published;
    Printf.printf
      "apstore-ci: node replay deterministic across jobs (%d templates, %d hits, %d \
       misses)\n"
      s1.Apstore.published s1.Apstore.hits s1.Apstore.misses
  | _ -> fail "use_apstore replay reported no store stats"

(* ---- 5. the storm gate ---- *)

(* Many distinct senders hammer one ERC-20 [transfer] shape.  ON: the
   first transaction's trace is lifted into a template, and every later
   transaction is keyed, finds it and binds its own fields into it.  OFF:
   the classic pipeline traces and synthesizes a fresh per-tx AP for
   every transaction.  Both replay the identical storm. *)
let storm_gate () =
  let n_txs = 2000 in
  let run ~on =
    let storm = Workload.Airdrop.create ~n_senders:64 ~seed:31337 ~token () in
    let bk = Statedb.Backend.create () in
    let root = Workload.Airdrop.genesis storm bk in
    let st = Statedb.create bk ~root in
    let store = Apstore.create () in
    let hits = ref 0 and misses = ref 0 and violations = ref 0 and built = ref 0 in
    let speculate ~template tx =
      match speculate ~template st tx with
      | Ok ap ->
        incr built;
        Some ap
      | Error _ -> None
    in
    let exec_via ap tx =
      match Ap.Exec.execute ap st benv tx with
      | Ap.Exec.Hit _ -> incr hits
      | Ap.Exec.Violation ->
        incr violations;
        ignore (Evm.Processor.execute_tx st benv tx)
    in
    let exec_plain tx = ignore (Evm.Processor.execute_tx st benv tx) in
    for _ = 1 to n_txs do
      let tx = Workload.Airdrop.tx storm in
      if on then begin
        match Apstore.key_of_tx st !Spec.current tx with
        | None -> exec_plain tx
        | Some key -> (
          match Apstore.find store key with
          | Some tp -> exec_via tp tx
          | None ->
            incr misses;
            ignore (Apstore.reserve store key);
            (match speculate ~template:true tx with
            | Some tp -> Apstore.publish store key tp
            | None -> Apstore.abandon store key);
            exec_plain tx)
      end
      else
        match speculate ~template:false tx with
        | Some ap -> exec_via ap tx
        | None -> exec_plain tx
    done;
    (Statedb.commit st, !hits, !misses, !violations, !built, Apstore.stats store)
  in
  let root_on, h_on, m_on, v_on, _, s_on = run ~on:true in
  let root_off, h_off, _, v_off, built_off, _ = run ~on:false in
  Printf.printf
    "apstore-ci: storm gate: %d txs, ON %d template(s) published, %d hits, %d misses, %d \
     violations; OFF %d per-tx APs built, %d hits, %d violations; roots identical: %b\n"
    n_txs s_on.Apstore.published h_on m_on v_on built_off h_off v_off
    (String.equal root_on root_off);
  check (String.equal root_on root_off) "storm: final state roots diverged between ON and OFF";
  check (s_on.Apstore.published = 1) "storm: %d templates published, want exactly 1"
    s_on.Apstore.published;
  check (built_off >= 1) "storm: OFF built no per-tx AP";
  check (100 * h_on >= 90 * n_txs) "storm: ON served %d/%d txs, below the 90%% gate" h_on n_txs

let () =
  key_tests ();
  store_tests ();
  hammer_tests ();
  oracle_tests ();
  node_tests ();
  storm_gate ();
  print_endline "apstore-ci: all passes green"
