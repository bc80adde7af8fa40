(* The @spec alias: the hardfork spec layer pinned down.

   Three batteries:
   1. fork metadata + delta inheritance: [Spec.resolve] must equal the
      parent's resolved tables with exactly [Spec.delta_of] applied,
      Istanbul must make available exactly the bytes Op assigns, and the
      per-fork gas pins catch any silent repricing;
   2. the EIP-2929 warm/cold access-list state machine, checked against
      real executions: first touch pays the cold surcharge, later touches
      are warm, sender/target are warm at entry, prewarm seeds warmth;
   3. the SSTORE-clear refund rules: pre-Istanbul forks refund per zero
      write, capped at gas_used / divisor; Istanbul and Berlin refund
      nothing — plus the cross-fork rejection contracts (an S-EVM path or
      AP built under one fork never replays under another). *)

open State
module I = Sevm.Ir

let t name f = Alcotest.test_case name `Quick f
let u = U256.of_int

(* ---- battery 1: metadata, inheritance, pins ---- *)

let metadata () =
  Alcotest.(check int) "n_forks" 5 (List.length Spec.all_forks);
  List.iteri
    (fun i f ->
      Alcotest.(check int) "dense id, oldest first" i (Spec.fork_id f);
      Alcotest.(check bool) "fork_of_id inverts" true (Spec.fork_of_id i = Some f);
      Alcotest.(check bool)
        "fork_of_string inverts fork_name" true
        (Spec.fork_of_string (Spec.fork_name f) = Some f);
      let spec = Spec.resolve f in
      Alcotest.(check int) "resolved id" i spec.Spec.id;
      Alcotest.(check string) "resolved name" (Spec.fork_name f) spec.Spec.name)
    Spec.all_forks;
  Alcotest.(check bool) "unknown fork name" true (Spec.fork_of_string "shanghai" = None);
  Alcotest.(check bool) "frontier has no parent" true (Spec.parent Spec.Frontier = None);
  (* the ladder is a chain: each fork's parent is the previous list entry *)
  List.iteri
    (fun i f ->
      if i > 0 then
        Alcotest.(check bool)
          "parent is the previous rung" true
          (Spec.parent f = Some (List.nth Spec.all_forks (i - 1))))
    Spec.all_forks

let memoized () =
  List.iter
    (fun f -> Alcotest.(check bool) "resolve memoized" true (Spec.resolve f == Spec.resolve f))
    Spec.all_forks

(* Re-derive each fork from its parent's resolved record plus the declared
   delta, field by field — so [resolve]'s fold can never drift from the
   deltas the forks declare. *)
let inheritance () =
  List.iter
    (fun f ->
      match Spec.parent f with
      | None -> ()
      | Some pf ->
        let p = Spec.resolve pf and c = Spec.resolve f in
        let d = Spec.delta_of f in
        for b = 0 to 255 do
          let exp_gas =
            match List.assoc_opt b d.Spec.d_gas with
            | Some g -> g
            | None -> p.Spec.static_gas.(b)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s gas byte 0x%02x inherits" c.Spec.name b)
            exp_gas c.Spec.static_gas.(b);
          Alcotest.(check bool)
            (Printf.sprintf "%s availability byte 0x%02x inherits" c.Spec.name b)
            (p.Spec.available.(b) || List.mem b d.Spec.d_enable)
            c.Spec.available.(b)
        done;
        let dflt o v = Option.value o ~default:v in
        Alcotest.(check int) "exp_byte" (dflt d.Spec.d_exp_byte p.Spec.g_exp_byte)
          c.Spec.g_exp_byte;
        Alcotest.(check int) "tx_data_nonzero"
          (dflt d.Spec.d_tx_data_nonzero p.Spec.g_tx_data_nonzero)
          c.Spec.g_tx_data_nonzero;
        let esl, ess, ea =
          match d.Spec.d_cold with
          | Some c -> c
          | None -> (p.Spec.g_cold_sload, p.Spec.g_cold_sstore, p.Spec.g_cold_account)
        in
        Alcotest.(check int) "cold sload" esl c.Spec.g_cold_sload;
        Alcotest.(check int) "cold sstore" ess c.Spec.g_cold_sstore;
        Alcotest.(check int) "cold account" ea c.Spec.g_cold_account;
        Alcotest.(check bool) "access lists"
          (dflt d.Spec.d_access_lists p.Spec.has_access_lists)
          c.Spec.has_access_lists;
        Alcotest.(check bool) "63/64" (dflt d.Spec.d_63_64 p.Spec.has_63_64) c.Spec.has_63_64;
        let erc, erd =
          match d.Spec.d_refund with
          | Some r -> r
          | None -> (p.Spec.refund_sstore_clear, p.Spec.refund_cap_divisor)
        in
        Alcotest.(check int) "refund clear" erc c.Spec.refund_sstore_clear;
        Alcotest.(check int) "refund divisor" erd c.Spec.refund_cap_divisor)
    Spec.all_forks

(* Istanbul makes available exactly the bytes Op assigns (its charges are
   pinned class by class in the gastable suite). *)
let istanbul_availability () =
  let ist = Spec.resolve Spec.Istanbul in
  for b = 0 to 255 do
    Alcotest.(check bool)
      (Printf.sprintf "0x%02x available" b)
      (Evm.Op.of_byte b <> None) (Spec.available ist b)
  done

(* One pin per fork per load-bearing rule: numbers, not relations. *)
let per_fork_pins () =
  let g f b = Spec.static_gas (Spec.resolve f) b in
  let sload = 0x54 and balance = 0x31 and call = 0xf1 in
  (* SLOAD ladder: 50 -> 200 -> 200 -> 800 -> 100(+2000 cold) *)
  Alcotest.(check int) "frontier sload" 50 (g Spec.Frontier sload);
  Alcotest.(check int) "tangerine sload" 200 (g Spec.Tangerine sload);
  Alcotest.(check int) "constantinople sload" 200 (g Spec.Constantinople sload);
  Alcotest.(check int) "istanbul sload" 800 (g Spec.Istanbul sload);
  Alcotest.(check int) "berlin sload" 100 (g Spec.Berlin sload);
  (* BALANCE ladder: 20 -> 400 -> 400 -> 700 -> 100(+2500 cold) *)
  Alcotest.(check int) "frontier balance" 20 (g Spec.Frontier balance);
  Alcotest.(check int) "tangerine balance" 400 (g Spec.Tangerine balance);
  Alcotest.(check int) "istanbul balance" 700 (g Spec.Istanbul balance);
  Alcotest.(check int) "berlin balance" 100 (g Spec.Berlin balance);
  (* CALL: 40 -> 700 -> 700 -> 700 -> 100(+2500 cold) *)
  Alcotest.(check int) "frontier call" 40 (g Spec.Frontier call);
  Alcotest.(check int) "tangerine call" 700 (g Spec.Tangerine call);
  Alcotest.(check int) "berlin call" 100 (g Spec.Berlin call);
  (* opcode introductions *)
  List.iter
    (fun (b, name, first) ->
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s" name (Spec.fork_name f))
            (Spec.fork_id f >= Spec.fork_id first)
            (Spec.available (Spec.resolve f) b))
        Spec.all_forks)
    [ (0xf4, "DELEGATECALL", Spec.Tangerine); (0x1b, "SHL", Spec.Constantinople);
      (0xfd, "REVERT", Spec.Constantinople); (0xfa, "STATICCALL", Spec.Constantinople);
      (0xf5, "CREATE2", Spec.Constantinople); (0x3f, "EXTCODEHASH", Spec.Constantinople);
      (0x46, "CHAINID", Spec.Istanbul); (0x47, "SELFBALANCE", Spec.Istanbul) ];
  (* scalar rules *)
  let fr = Spec.resolve Spec.Frontier
  and ist = Spec.resolve Spec.Istanbul
  and ber = Spec.resolve Spec.Berlin in
  Alcotest.(check int) "frontier exp byte" 10 fr.Spec.g_exp_byte;
  Alcotest.(check int) "istanbul exp byte" 50 ist.Spec.g_exp_byte;
  Alcotest.(check int) "frontier nonzero calldata" 68 fr.Spec.g_tx_data_nonzero;
  Alcotest.(check int) "istanbul nonzero calldata" 16 ist.Spec.g_tx_data_nonzero;
  Alcotest.(check bool) "frontier pre-63/64" false fr.Spec.has_63_64;
  Alcotest.(check bool) "istanbul 63/64" true ist.Spec.has_63_64;
  Alcotest.(check bool) "istanbul no access lists" false ist.Spec.has_access_lists;
  Alcotest.(check bool) "berlin access lists" true ber.Spec.has_access_lists;
  Alcotest.(check int) "berlin cold sload surcharge" 2000 ber.Spec.g_cold_sload;
  Alcotest.(check int) "berlin cold sstore surcharge" 2100 ber.Spec.g_cold_sstore;
  Alcotest.(check int) "berlin cold account surcharge" 2500 ber.Spec.g_cold_account;
  Alcotest.(check int) "frontier refund" 15000 fr.Spec.refund_sstore_clear;
  Alcotest.(check int) "istanbul refund off" 0 ist.Spec.refund_sstore_clear;
  Alcotest.(check int) "berlin refund off" 0 ber.Spec.refund_sstore_clear

let intrinsic () =
  let fr = Spec.resolve Spec.Frontier and ist = Spec.resolve Spec.Istanbul in
  Alcotest.(check int) "empty call" 21000 (Spec.intrinsic_gas ist ~is_create:false "");
  Alcotest.(check int) "empty create" 53000 (Spec.intrinsic_gas ist ~is_create:true "");
  Alcotest.(check int) "istanbul calldata"
    (21000 + 16 + 4)
    (Spec.intrinsic_gas ist ~is_create:false "\x01\x00");
  Alcotest.(check int) "frontier calldata"
    (21000 + 68 + 4)
    (Spec.intrinsic_gas fr ~is_create:false "\x01\x00")

(* ---- battery 2: the warm/cold state machine against real executions ---- *)

let sender = Address.of_int 0x5E17
let contract = Address.of_int 0xC0DE
let other = Address.of_int 0x07E4

let benv : Evm.Env.block_env =
  {
    coinbase = Address.of_int 0xC01;
    timestamp = 1_700_000_000L;
    number = 64L;
    difficulty = U256.one;
    gas_limit = 30_000_000;
    chain_id = 1;
    block_hash = (fun _ -> U256.zero);
  }

(* Execute [code] as [contract]'s body under [fork]; returns gas_used.
   Every run must succeed — a gas number from a failed run would pin the
   wrong thing. *)
let gas_of ?(prewarm = []) ~fork code =
  let spec = Spec.resolve fork in
  let bk = Statedb.Backend.create () in
  let st0 = Statedb.create bk ~root:Statedb.empty_root in
  Statedb.set_balance st0 sender (U256.of_string "1000000000000000000");
  Statedb.set_code st0 contract (Evm.Asm.assemble code);
  Statedb.set_balance st0 other (u 12345);
  Statedb.set_storage st0 contract U256.zero (u 7);
  let root0 = Statedb.commit st0 in
  let st = Statedb.create bk ~root:root0 in
  let tx : Evm.Env.tx =
    { sender; to_ = Some contract; nonce = 0; value = U256.zero; data = "";
      gas_limit = 500_000; gas_price = U256.of_int 7 }
  in
  let r = Evm.Processor.execute_tx ~spec ~prewarm st benv tx in
  Alcotest.(check bool)
    (Fmt.str "run succeeds (%a)" Evm.Processor.pp_status r.Evm.Processor.status)
    true
    (r.Evm.Processor.status = Evm.Processor.Success);
  r.Evm.Processor.gas_used

let sload_once = Evm.Asm.[ push_int 0; op SLOAD; op POP; op STOP ]

let sload_twice =
  Evm.Asm.[ push_int 0; op SLOAD; op POP; push_int 0; op SLOAD; op POP; op STOP ]

let balance_body a = Evm.Asm.[ push (Address.to_u256 a); op BALANCE; op POP ]
let balance_of a = balance_body a @ [ Evm.Asm.op Evm.Op.STOP ]

let warm_cold_sload () =
  (* Berlin: first touch of the slot pays 100 + 2000, the second only 100 *)
  Alcotest.(check int) "cold SLOAD" (21000 + 3 + 2100 + 2) (gas_of ~fork:Spec.Berlin sload_once);
  Alcotest.(check int) "cold then warm SLOAD"
    (21000 + (3 + 2100 + 2) + (3 + 100 + 2))
    (gas_of ~fork:Spec.Berlin sload_twice);
  (* Istanbul has no warmth: both touches cost the flat 800 *)
  Alcotest.(check int) "istanbul SLOAD x2"
    (21000 + (2 * (3 + 800 + 2)))
    (gas_of ~fork:Spec.Istanbul sload_twice)

let warm_cold_balance () =
  (* a foreign account: cold 100+2500 first, warm 100 after *)
  Alcotest.(check int) "cold BALANCE" (21000 + 3 + 2600 + 2)
    (gas_of ~fork:Spec.Berlin (balance_of other));
  Alcotest.(check int) "cold then warm BALANCE"
    (21000 + (3 + 2600 + 2) + (3 + 100 + 2))
    (gas_of ~fork:Spec.Berlin (balance_body other @ balance_of other));
  (* the executing contract is warm at entry: no cold surcharge ever *)
  Alcotest.(check int) "target warm at entry" (21000 + 3 + 100 + 2)
    (gas_of ~fork:Spec.Berlin (balance_of contract));
  (* the sender is warm at entry too *)
  Alcotest.(check int) "sender warm at entry" (21000 + 3 + 100 + 2)
    (gas_of ~fork:Spec.Berlin (balance_of sender))

let prewarm_seeds () =
  Alcotest.(check int) "prewarmed slot skips the surcharge" (21000 + 3 + 100 + 2)
    (gas_of ~fork:Spec.Berlin ~prewarm:[ (contract, Some U256.zero) ] sload_once);
  Alcotest.(check int) "prewarmed account skips the surcharge" (21000 + 3 + 100 + 2)
    (gas_of ~fork:Spec.Berlin ~prewarm:[ (other, None) ] (balance_of other));
  (* prewarming the account does NOT warm its slots *)
  Alcotest.(check int) "account prewarm leaves slots cold" (21000 + 3 + 2100 + 2)
    (gas_of ~fork:Spec.Berlin ~prewarm:[ (contract, None) ] sload_once)

let entry_warm_predicate () =
  let tx : Evm.Env.tx =
    { sender; to_ = Some contract; nonce = 0; value = U256.zero; data = "";
      gas_limit = 100_000; gas_price = U256.one }
  in
  let w = Evm.Processor.entry_warm tx in
  Alcotest.(check bool) "sender warm" true (w [] (sender, None));
  Alcotest.(check bool) "target warm" true (w [] (contract, None));
  Alcotest.(check bool) "stranger cold" false (w [] (other, None));
  Alcotest.(check bool) "slots cold by default" false (w [] (contract, Some U256.zero));
  Alcotest.(check bool) "prewarm account" true (w [ (other, None) ] (other, None));
  Alcotest.(check bool) "prewarm slot" true
    (w [ (contract, Some (u 3)) ] (contract, Some (u 3)));
  Alcotest.(check bool) "prewarm slot is per-key" false
    (w [ (contract, Some (u 3)) ] (contract, Some (u 4)));
  Alcotest.(check bool) "account prewarm does not warm slots" false
    (w [ (contract, None) ] (contract, Some (u 3)))

(* ---- battery 3: refunds and cross-fork rejection ---- *)

let store_zero = Evm.Asm.[ push_int 0; push_int 0; op SSTORE; op STOP ]

let burn_then_clear =
  (* two nonzero stores to burn past 2 * 15000, then one clearing store *)
  Evm.Asm.
    [ push_int 7; push_int 1; op SSTORE; push_int 7; push_int 2; op SSTORE;
      push_int 0; push_int 0; op SSTORE; op STOP ]

let refunds () =
  (* capped: X = 21006 + 5000, refund = min(15000, X/2) = X/2 *)
  let x = 21000 + 3 + 3 + 5000 in
  Alcotest.(check int) "frontier clear, cap binds" (x - (x / 2))
    (gas_of ~fork:Spec.Frontier store_zero);
  (* uncapped: X = 21018 + 15000, refund = 15000 exactly *)
  let x = 21000 + (6 * 3) + (3 * 5000) in
  Alcotest.(check int) "frontier clear, full refund" (x - 15000)
    (gas_of ~fork:Spec.Frontier burn_then_clear);
  (* istanbul dropped the refund: the same programs pay full price *)
  Alcotest.(check int) "istanbul clear, no refund" (21000 + 3 + 3 + 5000)
    (gas_of ~fork:Spec.Istanbul store_zero);
  Alcotest.(check int) "constantinople still refunds"
    ((21000 + 3 + 3 + 5000) / 2)
    (gas_of ~fork:Spec.Constantinople store_zero)

(* A path stamped with one fork must never replay or execute under
   another: Replay.run reports a fork-mismatch violation, Ap.Exec reports
   Violation, and Ap.Program.add_path refuses to mix forks in one DAG. *)
let cross_fork_rejection () =
  let path fork_id =
    {
      I.instrs = [||];
      first_fast = 0;
      writes = [];
      status = Evm.Processor.Success;
      gas_used = 21000;
      gas_used_src = None;
      gas_refund = 0;
      output = [];
      reg_count = 0;
      reg_values = [||];
      fork = fork_id;
      inputs = [||];
      stats = I.empty_stats;
    }
  in
  let bk = Statedb.Backend.create () in
  let st = Statedb.create bk ~root:Statedb.empty_root in
  Statedb.set_balance st sender (U256.of_string "1000000000000000000");
  let tx : Evm.Env.tx =
    { sender; to_ = Some contract; nonce = 0; value = U256.zero; data = "";
      gas_limit = 100_000; gas_price = U256.one }
  in
  let berlin_path = path (Spec.fork_id Spec.Berlin) in
  (match Sevm.Replay.run berlin_path st benv tx with
  | Sevm.Replay.Violated v ->
    Alcotest.(check int) "replay fork mismatch reported pre-guard" (-1) v.index
  | Sevm.Replay.Replayed _ -> Alcotest.fail "berlin path replayed under istanbul");
  (match Sevm.Replay.run ~spec:(Spec.resolve Spec.Berlin) berlin_path st benv tx with
  | Sevm.Replay.Replayed _ -> ()
  | Sevm.Replay.Violated v -> Alcotest.fail ("same-fork replay violated: " ^ v.detail));
  let ap = Ap.Program.create () in
  Ap.Program.add_path ap berlin_path;
  Alcotest.(check int) "ap adopts the first path's fork" (Spec.fork_id Spec.Berlin) ap.Ap.Program.fork;
  (match Ap.Exec.execute ap st benv tx with
  | Ap.Exec.Violation -> ()
  | Ap.Exec.Hit _ -> Alcotest.fail "berlin AP executed under istanbul");
  (match Ap.Exec.execute ~spec:(Spec.resolve Spec.Berlin) ap st benv tx with
  | Ap.Exec.Hit _ -> ()
  | Ap.Exec.Violation -> Alcotest.fail "same-fork AP execution violated");
  (* a path from another fork is dropped, not merged, and counted *)
  let before = ap.Ap.Program.n_paths in
  let dropped = Obs.counter "ap.paths_dropped" in
  let was = !Obs.enabled in
  Obs.set_enabled true;
  let dropped_before = Obs.count dropped in
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () -> Ap.Program.add_path ap (path (Spec.fork_id Spec.Istanbul)));
  Alcotest.(check int) "cross-fork path dropped" before ap.Ap.Program.n_paths;
  Alcotest.(check int) "cross-fork drop counted" (dropped_before + 1) (Obs.count dropped)

let () =
  Alcotest.run "spec"
    [ ( "inheritance",
        [ t "fork metadata" metadata; t "resolve is memoized" memoized;
          t "deltas fold exactly" inheritance;
          t "istanbul opcode availability" istanbul_availability;
          t "per-fork gas pins" per_fork_pins; t "intrinsic gas" intrinsic ] );
      ( "warm-cold",
        [ t "SLOAD cold then warm" warm_cold_sload;
          t "BALANCE cold/warm + entry warmth" warm_cold_balance;
          t "prewarm seeds the access sets" prewarm_seeds;
          t "entry_warm predicate" entry_warm_predicate ] );
      ( "refunds-and-forks",
        [ t "sstore-clear refunds per fork" refunds;
          t "cross-fork paths rejected everywhere" cross_fork_rejection ] ) ]
